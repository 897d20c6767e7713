package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Runner executes one experiment. ctx is threaded through the pipeline
// stages of the experiment, so cancellation or a deadline aborts mid-stage.
type Runner func(context.Context, Config) *Report

// Registry maps experiment numbers to their runners.
var Registry = map[int]Runner{
	1:  Exp1,
	2:  Exp2,
	3:  Exp3,
	4:  Exp4,
	5:  Exp5,
	6:  Exp6,
	7:  Exp7,
	8:  Exp8,
	9:  Exp9,
	10: Exp10,
}

// Run executes experiment n.
func Run(ctx context.Context, n int, cfg Config) (*Report, error) {
	r, ok := Registry[n]
	if !ok {
		return nil, fmt.Errorf("experiments: no experiment %d", n)
	}
	return r(ctx, cfg), nil
}

// RunAll executes every experiment in order. When ctx is cancelled the
// loop stops before the next experiment; the in-flight experiment aborts at
// its next pipeline stage boundary.
func RunAll(ctx context.Context, cfg Config) []*Report {
	ids := make([]int, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Report, 0, len(ids))
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		out = append(out, Registry[id](ctx, cfg))
	}
	return out
}
