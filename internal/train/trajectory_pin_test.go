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
	name      string
	cfg       Config
	pipelined bool // losses via NewPipeline(25).Step instead of TrainStep
	losses    [25]uint64
	mrr       uint64
}

// pinnedRuns were recorded at commit 6435808, the last one whose models and
// sampler ran every stage on the full padded T·n / B·m layout. Executing on
// valid slots only is bitwise-neutral (DESIGN.md §15), so the trajectories
// must never move; a failure prints the observed table in Go syntax.
//
// The last three rows were recorded at commit f584484, the last one with two
// build paths and two link-prediction steps in this package: adaptive inner
// hops, a non-GPU finder under a randomized policy, and the pipelined loop
// all run through the shared descent and must not have moved with it.
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
	{
		name: "taser-tgat-all-layers",
		cfg: Config{Model: ModelTGAT, Finder: FinderGPU, CacheRatio: 0.2,
			AdaBatch: true, AdaNeighbor: true, AdaAllLayers: true, Decoder: adaptive.DecoderGATv2,
			Hidden: 12, TimeDim: 6, N: 5, M: 10, BatchSize: 32, MaxEvalEdges: 8, Seed: 14},
		losses: [25]uint64{
			0x3ff1b179f2fa3835, 0x3fecc7f3d2406840, 0x3fee3b2292e2f2c1, 0x3fefdcdc107f3ba5,
			0x3feb560412a42a5a, 0x3fea06e2ce3fbdd2, 0x3fec1275e051e280, 0x3feae0de7f39e24d,
			0x3fe983603030aa36, 0x3fe83b4aa7840ddd, 0x3fe8b70b0150a389, 0x3feb2eeb0fc7a092,
			0x3fe93aae63b99a3c, 0x3fe5c555d0b6830c, 0x3fe99e7f8946f0f2, 0x3fe7ae2e45a665e1,
			0x3fe8d3e6bba5d4ba, 0x3fe6da5d86d4c390, 0x3fe76bcfe3b067a6, 0x3fe8f15c70034836,
			0x3fe63f9faa33e040, 0x3fe7f3ac727a81ba, 0x3fe8b660b09b08e8, 0x3fe6671dbf15f165,
			0x3fe6e0c0a6e6d414,
		},
		mrr: 0x3fb45b43a7cf3280,
	},
	{
		name: "base-tgat-origin-invts",
		cfg: Config{Model: ModelTGAT, Finder: FinderOrigin, FinderPolicy: "invts",
			Hidden: 12, TimeDim: 6, BatchSize: 32, MaxEvalEdges: 8, Seed: 15},
		losses: [25]uint64{
			0x3fe647c2c621c671, 0x3fe6230791a8dfdc, 0x3fe64116f9e03487, 0x3fe5b1c256d5722e,
			0x3fe560b6755fe981, 0x3fe6197e1c4a6bf7, 0x3fe6a1655d914db7, 0x3fe698018e4d6efa,
			0x3fe718253c12d9ee, 0x3fe594543cfc616c, 0x3fe581a438090035, 0x3fe5e74f8ea1a4da,
			0x3fe5dd91a2698cad, 0x3fe6c3f0a22f5f43, 0x3fe5b38acf0c2e93, 0x3fe6752bb2ae9b11,
			0x3fe5506c77c9ebd5, 0x3fe60643df96dce6, 0x3fe5a78b2d388598, 0x3fe5e16a08a14aad,
			0x3fe5fe868dcbb340, 0x3fe5afdb6d9d3149, 0x3fe5ed9c85c37180, 0x3fe4f2d41dfff7c1,
			0x3fe68fedfd0d4105,
		},
		mrr: 0x3fb3c8439615a8cc,
	},
	{
		name: "pipelined-tgat-adaneighbor",
		cfg: Config{Model: ModelTGAT, Finder: FinderGPU, AdaNeighbor: true,
			Decoder: adaptive.DecoderGATv2, Hidden: 12, TimeDim: 6, BatchSize: 32,
			MaxEvalEdges: 8, Seed: 16},
		pipelined: true,
		losses: [25]uint64{
			0x3fe60cb9771bb102, 0x3fe71e6a9d77c36a, 0x3fe6cfc2d981a9d2, 0x3fe702703bed1f5f,
			0x3fe81ee871ce8f68, 0x3fe6c154f0a9fd5c, 0x3fe7921cf5841aca, 0x3fe7d1e9b5fa76ef,
			0x3fe611c33cc4192f, 0x3fe58794d254ee58, 0x3fe703d6cd66b23e, 0x3fe649b93d866df9,
			0x3fe5443dc2ccf0a1, 0x3fe4971e9c7cad8e, 0x3fe5a82c3480f229, 0x3fe65765da34ecfb,
			0x3fe6259d828ed2cd, 0x3fe60342a051a762, 0x3fe67889d4e0b569, 0x3fe59c6816e48bf7,
			0x3fe5b4d6af751945, 0x3fe71f61d8b2c5e7, 0x3fe5d7fcce8477a9, 0x3fe4ea20105666d9,
			0x3fe6bc3731da0f75,
		},
		mrr: 0x3fc11834bd615950,
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
		step := func() (float64, bool) { return tr.TrainStep(), true }
		closePipeline := func() {}
		if want.pipelined {
			p := tr.NewPipeline(len(got.losses))
			step, closePipeline = p.Step, p.Close
		}
		for i := range got.losses {
			loss, ok := step()
			if !ok {
				t.Fatalf("%s: pipeline exhausted at step %d", want.name, i)
			}
			got.losses[i] = math.Float64bits(loss)
		}
		closePipeline() // before evaluating on this goroutine
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
