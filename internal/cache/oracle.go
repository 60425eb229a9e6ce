package cache

// Oracle is the clairvoyant cache of Fig. 3(b): before each epoch it is told
// the exact access counts the epoch will produce and caches the top-k. It
// upper-bounds any epoch-granularity replacement policy and is used to show
// the Frequency policy is near-optimal. Reads only tally hits.
type Oracle struct {
	residency
}

// NewOracle builds an oracle cache with the given capacity.
func NewOracle(capacity int) *Oracle { return &Oracle{newResidency(capacity)} }

// EndEpoch implements Policy; the oracle changes residency only via Reveal.
func (o *Oracle) EndEpoch() []int32 { return nil }

// Reveal installs the top-k of the upcoming epoch's access counts and
// returns the newly inserted ids (whose rows must be loaded).
func (o *Oracle) Reveal(futureCounts []int64) []int32 {
	return o.install(topK(futureCounts, o.capacity))
}
