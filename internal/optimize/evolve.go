package optimize

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/blktrace"
	"repro/internal/parsweep"
)

// EvolveOptions configure the evolutionary driver.
type EvolveOptions struct {
	Options
	// Generations and Population size the loop (defaults 8 x 12).
	Generations int
	// Population is the per-generation candidate count.
	Population int
	// Seed drives the PCG stream behind selection and mutation.  Two
	// runs with the same seed (and space/trace/options) are
	// byte-identical regardless of worker count.
	Seed uint64
}

const (
	// tournamentK is the selection tournament size.
	tournamentK = 3
	// mutSigma is the Gaussian mutation step in index space — how many
	// grid positions a parameter typically jumps.
	mutSigma = 1.0
)

func (o EvolveOptions) normalized() EvolveOptions {
	o.Options = o.Options.normalized()
	if o.Generations <= 0 {
		o.Generations = 8
	}
	if o.Population <= 0 {
		o.Population = 12
	}
	return o
}

// evolveStream isolates the evolutionary RNG from every other consumer
// of the run seed (trace synthesis, power metering).
const evolveStream = 0x6f7074696d697a65 // "optimize"

// genome is one candidate as value indices per dimension.
type genome []int

func (g genome) key() string { return fmt.Sprint([]int(g)) }

// Evolve runs a seed-deterministic evolutionary search: tournament
// selection over the scored population, Gaussian mutation in index
// space (snapped to the discrete grid), with every generation's fresh
// genomes fanned out through parsweep.  All randomness is drawn in this
// single-threaded driver loop — workers only evaluate — so the result
// is byte-identical at any worker count and across same-seed runs.
func Evolve(ctx context.Context, space Space, trace *blktrace.Trace, opts EvolveOptions) (*SearchResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	rng := rand.New(rand.NewPCG(opts.Seed, evolveStream))

	randomGenome := func() genome {
		g := make(genome, len(space.Dims))
		for d := range space.Dims {
			g[d] = rng.IntN(len(space.Dims[d].Values))
		}
		return g
	}
	mutate := func(g genome) genome {
		out := make(genome, len(g))
		for d := range g {
			n := len(space.Dims[d].Values)
			idx := g[d] + int(rng.NormFloat64()*mutSigma+0.5)
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			out[d] = idx
		}
		return out
	}

	// cache dedupes genomes across generations: a revisited point reuses
	// its score instead of burning a simulation cell.
	cache := map[string]Eval{}
	res := &SearchResult{BestIndex: -1}
	seen := 0 // total distinct genomes, for the winner tie-break order

	pop := make([]genome, opts.Population)
	for i := range pop {
		pop[i] = randomGenome()
	}

	for gen := 0; gen < opts.Generations; gen++ {
		// Score the genomes not seen before, fanned out in population
		// order (deterministic: the fresh list derives only from driver
		// RNG and the cache, never from worker timing).
		var fresh []genome
		for _, g := range pop {
			if _, ok := cache[g.key()]; !ok {
				fresh = append(fresh, g)
				cache[g.key()] = Eval{} // reserve so duplicates in pop stay single
			}
		}
		evals, err := parsweep.Map(ctx, parsweep.Options{
			Workers: opts.Workers,
			Label: func(i int) string {
				return fmt.Sprintf("optimize gen %d %s", gen, space.At(fresh[i]).String())
			},
		}, len(fresh), func(i int) (Eval, error) {
			return Evaluate(opts.Options, space.At(fresh[i]), trace, nil)
		})
		if err != nil {
			return nil, err
		}
		for i, e := range evals {
			cache[fresh[i].key()] = e
			res.Evals = append(res.Evals, e)
			if res.BestIndex < 0 || better(e, seen, res.Best, res.BestIndex) {
				res.Best, res.BestIndex = e, seen
			}
			seen++
		}
		res.Cells += len(fresh)

		if gen == opts.Generations-1 {
			break
		}
		// Breed the next generation: tournament-select a parent, mutate.
		scored := make([]Eval, len(pop))
		for i, g := range pop {
			scored[i] = cache[g.key()]
		}
		next := make([]genome, opts.Population)
		for i := range next {
			best := rng.IntN(len(pop))
			for k := 1; k < tournamentK; k++ {
				c := rng.IntN(len(pop))
				if scored[c].Fitness > scored[best].Fitness {
					best = c
				}
			}
			next[i] = mutate(pop[best])
		}
		pop = next
	}
	// BestIndex numbers discovery order, which is meaningful only
	// internally; expose grid semantics (-1 = not a grid cell).
	res.BestIndex = -1
	sortEvalsStable(res.Evals)
	return res, nil
}

// sortEvalsStable orders the reported evaluations best-first for
// rendering; the winner is already fixed by discovery-order tie-break.
func sortEvalsStable(evals []Eval) {
	sort.SliceStable(evals, func(i, j int) bool {
		return evals[i].Fitness > evals[j].Fitness
	})
}
