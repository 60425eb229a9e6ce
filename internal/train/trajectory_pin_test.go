package train

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/datasets"
)

// pinnedRun is one configuration's recorded trajectory: the bit patterns of
// the first 25 TrainStep losses and of the validation MRR evaluated right
// after them.
type pinnedRun struct {
	name   string
	cfg    Config
	losses [25]uint64
	mrr    uint64
}

// pinnedRuns were recorded at commit 6435808, the last one whose models and
// sampler ran every stage on the full padded T·n / B·m layout. Executing on
// valid slots only is bitwise-neutral (DESIGN.md §15), so the trajectories
// must never move; a failure prints the observed table in Go syntax.
var pinnedRuns = []pinnedRun{
	{
		name: "taser-tgat-gatv2",
		cfg: Config{Model: ModelTGAT, Finder: FinderGPU, CacheRatio: 0.2,
			AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderGATv2,
			Hidden: 16, TimeDim: 8, BatchSize: 64, MaxEvalEdges: 10, Seed: 11},
		losses: [25]uint64{
			0x3fe944fe562b6017, 0x3fe7ceb024b0cc30, 0x3fe6f78587f96e09, 0x3fe6d38ca2a9106a,
			0x3fe64b402ece6da8, 0x3fe746b55c6f49db, 0x3fe6624984e6633d, 0x3fe5806c0c8807bf,
			0x3fe6335e518bd414, 0x3fe6e0099ce28cee, 0x3fe76d0524c07d68, 0x3fe5fa18b8b95203,
			0x3fe649fc8ed67d29, 0x3fe66913f7c6e04f, 0x3fe5cc55e203fa5f, 0x3fe554e5cddb0b17,
			0x3fe5a14a3f1c9d5a, 0x3fe584151d8df10b, 0x3fe61c46070cafa1, 0x3fe57c6ede818fb9,
			0x3fe64c1ff01fabdc, 0x3fe5bdb316959353, 0x3fe5a763d820636b, 0x3fe504e7307cd0be,
			0x3fe5b6ec3e60038e,
		},
		mrr: 0x3fd019de525af0f6,
	},
	{
		name: "base-graphmixer",
		cfg: Config{Model: ModelGraphMixer, Finder: FinderGPU,
			Hidden: 12, TimeDim: 6, BatchSize: 32, MaxEvalEdges: 8, Seed: 12},
		losses: [25]uint64{
			0x3fe6533d236de9fc, 0x3fe6bef9e28daec1, 0x3fe7132205fa2276, 0x3fe7a778d32ea5fd,
			0x3fe6898f9eb59d33, 0x3fe65c75ad4e8d01, 0x3fe67ce7ea2b95ab, 0x3fe703daa63082dd,
			0x3fe65ab9dde7c494, 0x3fe61e2b46632ec2, 0x3fe69cbecbce7936, 0x3fe6b660b6ac0eba,
			0x3fe614a6c4cd64dd, 0x3fe59db95a225b24, 0x3fe6258265ed0ebf, 0x3fe6413195575643,
			0x3fe62c2cb660d32c, 0x3fe67d9440b1a09e, 0x3fe62a8e9426fc83, 0x3fe61bce2882ed7e,
			0x3fe60695aca5a867, 0x3fe646c5b18dda3d, 0x3fe5fbd2e18d6fdd, 0x3fe5bc51d1d3fecd,
			0x3fe6152c84976a3a,
		},
		mrr: 0x3fbadbdb36f6cdbc,
	},
	{
		name: "taser-graphmixer-linear",
		cfg: Config{Model: ModelGraphMixer, Finder: FinderGPU,
			AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderLinear,
			Hidden: 12, TimeDim: 6, BatchSize: 32, MaxEvalEdges: 8, Seed: 13},
		losses: [25]uint64{
			0x3fe64823896066fc, 0x3fe6481034b99a2a, 0x3fe62daa3b569510, 0x3fe61f543e1b954e,
			0x3fe6744cdb025943, 0x3fe6532faebbecaa, 0x3fe633d3fa132187, 0x3fe628db4bd6f3ac,
			0x3fe5f0c6cdf09f31, 0x3fe5ea145bd60036, 0x3fe62cfd10371d5f, 0x3fe610f0bef6cf18,
			0x3fe5f82dc3c06c21, 0x3fe61bfee51c9f56, 0x3fe674c08a7ecb03, 0x3fe6266c0a7926bf,
			0x3fe62563de7c3052, 0x3fe62e1a3b6359cf, 0x3fe613b088541490, 0x3fe626be189b3926,
			0x3fe616e85e1204ed, 0x3fe632ca818cf1be, 0x3fe60e9db930579c, 0x3fe64114af6d7a57,
			0x3fe5fa36260976f7,
		},
		mrr: 0x3fc5488010ef32ac,
	},
}

// TestTrajectoriesPinnedToPaddedExecution is the end-to-end half of the
// padding-free contract: 25 training steps and the evaluation that follows
// are bit-for-bit what the padded execution produced.
func TestTrajectoriesPinnedToPaddedExecution(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse x*y+z into an FMA, which rounds differently;
		// the table holds amd64 bit patterns.
		t.Skip("bit patterns recorded on amd64")
	}
	for _, want := range pinnedRuns {
		ds := datasets.Wikipedia(0.08, 4)
		tr, err := New(want.cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedRun{}
		for i := range got.losses {
			got.losses[i] = math.Float64bits(tr.TrainStep())
		}
		got.mrr = math.Float64bits(tr.EvalMRR(SplitVal))
		if got.losses != want.losses || got.mrr != want.mrr {
			var sb strings.Builder
			sb.WriteString("losses: [25]uint64{")
			for i, l := range got.losses {
				if i%4 == 0 {
					sb.WriteString("\n\t")
				}
				fmt.Fprintf(&sb, "%#x, ", l)
			}
			fmt.Fprintf(&sb, "\n},\nmrr: %#x,", got.mrr)
			t.Errorf("%s: trajectory moved (first loss %v, MRR %v); observed:\n%s", want.name,
				math.Float64frombits(got.losses[0]), math.Float64frombits(got.mrr), sb.String())
		}
	}
}
