package mbpta

import (
	"fmt"
	"math"
)

// The stopping rule: the stream has converged once stableRefits
// consecutive refits each land within relative tolerance stableTol of
// their predecessor. One agreeing pair is noise at block granularity;
// requiring a run of them is what calibrates the stopped estimate to land
// within the A4 cross-check threshold of a fixed-count analysis (see
// stream_test.go).
const (
	stableTol    = 0.02
	stableRefits = 3
)

// StreamOptions configures the incremental MBPTA estimator. Of the
// embedded Options the stream reads BlockSize and MinBlocks (the i.i.d.
// fields belong to Analyze); the additional fields bound the campaign the
// stopping rule runs over.
type StreamOptions struct {
	Options
	// Prob is the per-run exceedance probability the stopping rule tracks
	// (default 1e-15, the paper's headline probability).
	Prob float64
	// MinRuns is the minimum number of observations before any estimate
	// is produced or convergence declared (default 100, or MaxRuns when
	// that is set and smaller, so a small run budget stays satisfiable).
	MinRuns int
	// MaxRuns, when non-zero, caps the stream: Add reports done once the
	// cap is reached even without convergence (the paper's 1,000-run
	// ceiling is the operative stop in practice).
	MaxRuns int
}

func (o *StreamOptions) fill() error {
	if o.Prob == 0 {
		o.Prob = 1e-15
	}
	if err := checkProb(o.Prob); err != nil {
		return err
	}
	if o.MinRuns == 0 {
		o.MinRuns = 100
		if o.MaxRuns > 0 {
			o.MinRuns = min(o.MinRuns, o.MaxRuns)
		}
	}
	if o.MinBlocks == 0 {
		o.MinBlocks = 20
	}
	if o.BlockSize == 0 {
		// A stream cannot auto-size blocks from a final sample count the
		// way Analyze does, so pick the size that makes the first estimate
		// available exactly when both MinRuns and MinBlocks are satisfied.
		bs := o.MinRuns / o.MinBlocks
		if bs < 2 {
			bs = 2
		}
		o.BlockSize = bs
	}
	if o.BlockSize < 2 {
		return fmt.Errorf("mbpta: BlockSize %d is not a usable block size (need >= 2)", o.BlockSize)
	}
	if o.MaxRuns != 0 {
		if o.MaxRuns < o.MinRuns {
			return fmt.Errorf("mbpta: MaxRuns %d below MinRuns %d", o.MaxRuns, o.MinRuns)
		}
		capOpt := o.Options
		capOpt.fill(o.MaxRuns)
		if err := capOpt.validate(o.MaxRuns); err != nil {
			return fmt.Errorf("mbpta: unsatisfiable with MaxRuns=%d: %w", o.MaxRuns, err)
		}
	}
	return nil
}

// Stream folds execution times one at a time into an online block-maxima
// Gumbel fit, refitting once per completed block and stopping when the
// pWCET estimate at StreamOptions.Prob has been stable for stableRefits
// consecutive refits. It is MBPTA's convergence criterion (§3.3: run the
// unit "enough times"): a campaign drives Add after every simulation run
// and stops producing runs as soon as Add reports done.
//
// Add is O(1) outside block boundaries and O(blocks) at each boundary (one
// Gumbel ML refit over the accumulated maxima), so a campaign of n runs
// costs O(n^2/BlockSize) in the worst case — negligible against the
// simulation time of even one run. Estimates use the same per-run to
// per-block probability conversion and MaxSeen floor as Result.PWCET.
//
// The streaming estimates skip the i.i.d. gate (it is a whole-sample
// property) and only drive the stopping rule: the estimate is Analyze over
// Times, as sim.Pool.Estimate runs it.
type Stream struct {
	opt StreamOptions

	times  []float64
	maxima []float64
	blockN int     // observations in the current partial block
	blockM float64 // running max of the current partial block
	max    float64 // high-water mark of all observations

	est       float64 // latest pWCET estimate at opt.Prob
	haveEst   bool
	stable    int // consecutive refits within stableTol of their predecessor
	converged bool
}

// NewStream validates the options up front and returns an empty stream.
// Configurations that can never produce a fit (unusable BlockSize, a
// MaxRuns budget yielding fewer than MinBlocks blocks) are rejected here,
// before any measurement is spent.
func NewStream(opt StreamOptions) (*Stream, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	return &Stream{opt: opt, max: math.Inf(-1)}, nil
}

// Add folds one execution time into the stream and reports whether the
// campaign should stop producing runs: either the estimate has converged
// or MaxRuns is exhausted.
func (s *Stream) Add(t float64) (done bool) {
	s.times = append(s.times, t)
	if t > s.max {
		s.max = t
	}
	if s.blockN == 0 || t > s.blockM {
		s.blockM = t
	}
	s.blockN++
	if s.blockN == s.opt.BlockSize {
		s.maxima = append(s.maxima, s.blockM)
		s.blockN = 0
		s.refit()
	}
	return s.Done()
}

// refit re-estimates the pWCET from the accumulated block maxima and
// advances the stability counter. Called once per completed block.
func (s *Stream) refit() {
	if len(s.maxima) < s.opt.MinBlocks || len(s.times) < s.opt.MinRuns {
		return
	}
	cur, ok := s.estimate()
	if !ok {
		return
	}
	if s.haveEst && converged(s.est, cur) {
		s.stable++
	} else {
		s.stable = 0
	}
	s.est, s.haveEst = cur, true
	if s.stable >= stableRefits {
		s.converged = true
	}
}

// estimate fits the current maxima and extracts the pWCET at opt.Prob,
// reusing Result's probability conversion and MaxSeen floor.
func (s *Stream) estimate() (float64, bool) {
	r := Result{
		Runs:      len(s.times),
		BlockSize: s.opt.BlockSize,
		NumBlocks: len(s.maxima),
		MaxSeen:   s.max,
	}
	fit, err := FitGumbelML(s.maxima)
	switch {
	case err == ErrDegenerateSample:
		r.Degenerate = true
	case err != nil:
		return 0, false
	default:
		r.Fit = fit
	}
	v, err := r.PWCETE(s.opt.Prob)
	if err != nil {
		return 0, false
	}
	return v, true
}

// converged reports whether successive estimates prev and cur agree
// within stableTol (relative to prev).
func converged(prev, cur float64) bool {
	if prev == 0 {
		return cur == 0
	}
	return math.Abs(cur-prev)/math.Abs(prev) <= stableTol
}

// Converged reports whether the stopping rule has fired.
func (s *Stream) Converged() bool { return s.converged }

// Done reports whether the campaign should stop: converged, or MaxRuns
// exhausted.
func (s *Stream) Done() bool {
	return s.converged || (s.opt.MaxRuns != 0 && len(s.times) >= s.opt.MaxRuns)
}

// Runs returns the number of observations folded in so far.
func (s *Stream) Runs() int { return len(s.times) }

// Estimate returns the latest streaming pWCET estimate at
// StreamOptions.Prob; ok is false before the first refit (fewer than
// MinRuns observations or MinBlocks completed blocks).
func (s *Stream) Estimate() (v float64, ok bool) { return s.est, s.haveEst }

// Times returns the observations in arrival order. The slice is the
// stream's backing store; callers must not mutate it.
func (s *Stream) Times() []float64 { return s.times }
