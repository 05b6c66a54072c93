package cache

import "paratime/internal/cfg"

// MustAnalyze is Analyze, panicking on configuration errors.
func MustAnalyze(g *cfg.Graph, st *Stream, cacheCfg Config) *Result {
	r, err := Analyze(g, st, cacheCfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Join combines two states flowing into the same program point:
// Must join keeps lines present in both at their maximum age;
// May join keeps lines present in either at their minimum age.
func (a *ACS) Join(b *ACS) *ACS {
	out := a.Clone()
	out.JoinInPlace(b)
	return out
}

// Contains reports whether the line holding addr is cached.
func (c *LRU) Contains(addr uint32) bool {
	l := c.cfg.LineOf(addr)
	for _, x := range c.sets[c.cfg.SetOf(l)] {
		if x == l {
			return true
		}
	}
	return false
}

// twoLevelResult is the joint analysis of a private L1 feeding an L2.
type twoLevelResult struct {
	L1  *Result
	L2  *Result
	CAC map[RefID]CAC // per reference: does it reach L2?
}

// analyzeTwoLevel analyzes a two-level non-inclusive hierarchy over one
// reference stream: the L1 is analyzed first, then the L2 under the
// induced cache access classification, as core.Prepare composes them.
func analyzeTwoLevel(g *cfg.Graph, st *Stream, l1, l2 Config) (*twoLevelResult, error) {
	r1, err := Analyze(g, st, l1)
	if err != nil {
		return nil, err
	}
	cac := map[RefID]CAC{}
	for id, rc := range r1.Classes {
		cac[id] = CACFromL1(rc.Class)
	}
	r2, err := AnalyzeWithCAC(g, st, l2, cac)
	if err != nil {
		return nil, err
	}
	return &twoLevelResult{L1: r1, L2: r2, CAC: cac}, nil
}
