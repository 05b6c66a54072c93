package cache

import "paratime/internal/cfg"

// CAC is the cache access classification of a reference with respect to
// the next cache level (Hardy & Puaut, RTSS 2008): whether the reference
// reaches that level Always, Never, or Uncertainly.
type CAC uint8

// Cache access classifications.
const (
	Always CAC = iota
	Uncertain
	Never
)

func (c CAC) String() string {
	switch c {
	case Always:
		return "A"
	case Uncertain:
		return "U"
	default:
		return "N"
	}
}

// CACFromL1 derives the next-level access classification from an L1
// classification: ALWAYS_HIT never reaches L2, ALWAYS_MISS always does,
// PERSISTENT and NOT_CLASSIFIED reach it uncertainly.
func CACFromL1(c Class) CAC {
	switch c {
	case AlwaysHit:
		return Never
	case AlwaysMiss:
		return Always
	default:
		return Uncertain
	}
}

// AnalyzeWithCAC analyzes one cache level where each reference carries a
// cache access classification: Never references do not touch the level,
// Uncertain references update it with the join of accessing and not
// accessing (Hardy & Puaut), and persistence counts only references that
// may reach the level. With a nil cac every reference Always reaches the
// level, which is exactly the single-level Analyze. This is the building
// block for unified L2 analysis over merged instruction+data streams and
// for the shared-cache interference analyses.
//
// The stream's touched lines are interned into a dense per-config Index
// once, the stream is compiled to slot-level ops, and Must and May
// in-states are computed by the worklist fixpoint over flat age vectors.
func AnalyzeWithCAC(g *cfg.Graph, st *Stream, cacheCfg Config, cac map[RefID]CAC) (*Result, error) {
	if err := cacheCfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Cfg:     cacheCfg,
		Classes: map[RefID]RefClass{},
		MustIn:  map[cfg.BlockID]*ACS{},
		MayIn:   map[cfg.BlockID]*ACS{},
		idx:     StreamIndex(cacheCfg, st),
		g:       g,
		stream:  st,
		cac:     cac,
	}
	ops := compileOps(g, st, cac, res.idx)
	res.runFixpoint(g, ops, Must, res.MustIn)
	res.runFixpoint(g, ops, May, res.MayIn)
	res.computePersistence(g, ops)
	res.classify(g, st)
	return res, nil
}
