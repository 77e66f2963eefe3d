package experiments

import (
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/workload"
)

// Runner runs one experiment and renders its result as report tables.
type Runner func(cfg config.SystemConfig, m workload.Model, opts ...Option) ([]*report.Table, error)

// Experiment is one registered experiment: the id `reachsim -exp` selects
// it by, and how to run it.
type Experiment struct {
	ID string
	// Extra experiments are runnable and listed but not part of `-exp all`:
	// the tail sweep's Poisson runs and the cluster sweeps do not belong to
	// the paper's evaluation tables.
	Extra bool
	Run   Runner
}

// registry is the single list of experiments, in `-exp all` output order
// with the extras last. The CLI's -exp, -exp all and -list and the tests
// all read it.
var registry = []Experiment{
	{ID: "table1", Run: static(func(_ config.SystemConfig, m workload.Model) *report.Table { return TableI(m) })},
	{ID: "table2", Run: static(func(cfg config.SystemConfig, _ workload.Model) *report.Table { return TableII(cfg) })},
	{ID: "table3", Run: static(func(config.SystemConfig, workload.Model) *report.Table { return TableIII() })},
	{ID: "table4", Run: static(func(config.SystemConfig, workload.Model) *report.Table { return TableIV(energy.DefaultCosts()) })},
	{ID: "fig8", Run: adapt(Fig8, (*Fig8Result).Table)},
	{ID: "fig9", Run: adapt(Fig9, figure("Fig 9"))},
	{ID: "fig10", Run: adapt(Fig10, figure("Fig 10"))},
	{ID: "fig11", Run: adapt(Fig11, figure("Fig 11"))},
	{ID: "fig12", Run: adapt(Fig12, (*Fig12Result).Table)},
	{ID: "fig13", Run: adapt(Fig13, (*Fig13Result).Table)},
	{ID: "ablation-gam", Run: adapt(AblationGAM, (*GAMAblationResult).Table)},
	{ID: "ablation-mapping", Run: adapt(AblationMapping, (*MappingAblationResult).Table)},
	{ID: "ablation-nsbuffer", Run: adapt(AblationNSBuffer, (*BufferAblationResult).Table)},
	{ID: "ablation-granularity", Run: adapt(AblationGranularity, (*GranularityResult).Table)},
	{ID: "motivation", Run: adapt(func(_ workload.Model, opts ...Option) (*MotivationResult, error) { return Motivation(opts...) }, (*MotivationResult).Table)},
	{ID: "loadsweep", Run: adapt2(LoadSweepBoth, LoadSweepTable)},
	{ID: "skew", Run: adapt(SkewExperiment, (*SkewResult).Table)},
	{ID: "reverselookup", Run: adapt(ReverseLookup, (*ReverseLookupResult).Table)},
	{ID: "multitenant", Run: adapt(MultiTenant, (*MultiTenantResult).Table)},
	{ID: "recallsweep", Run: adapt(RecallSweep, (*RecallSweepResult).Table)},
	{ID: "cachesweep", Extra: true, Run: adapt(DefaultCacheSweep, CacheSweepTable)},
	{ID: "clustersweep", Extra: true, Run: adapt(DefaultClusterSweep, ClusterSweepTable)},
	{ID: "taillatency", Extra: true, Run: adapt2(TailLatencyBoth, TailLatencyTable)},
}

// IDs returns the ids of the `-exp all` experiments, or of the extras when
// extra is set, in registry order.
func IDs(extra bool) []string {
	var ids []string
	for _, e := range registry {
		if e.Extra == extra {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Lookup finds an experiment by id, ignoring case.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// static adapts a table rendered straight from the configuration and the
// workload model, with no simulation to run.
func static(table func(config.SystemConfig, workload.Model) *report.Table) Runner {
	return func(cfg config.SystemConfig, m workload.Model, _ ...Option) ([]*report.Table, error) {
		return []*report.Table{table(cfg, m)}, nil
	}
}

// adapt turns an experiment's typed result into its table.
func adapt[R any](run func(workload.Model, ...Option) (R, error), table func(R) *report.Table) Runner {
	return func(_ config.SystemConfig, m workload.Model, opts ...Option) ([]*report.Table, error) {
		r, err := run(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{table(r)}, nil
	}
}

// adapt2 is adapt for the sweeps that run the on-chip baseline and ReACH
// side by side and render both into one table.
func adapt2[R any](run func(workload.Model, ...Option) (R, R, error), table func(R, R) *report.Table) Runner {
	return func(_ config.SystemConfig, m workload.Model, opts ...Option) ([]*report.Table, error) {
		onchip, reach, err := run(m, opts...)
		if err != nil {
			return nil, err
		}
		return []*report.Table{table(onchip, reach)}, nil
	}
}

// figure renders a stage sweep under its figure title.
func figure(title string) func(*StageSweep) *report.Table {
	return func(s *StageSweep) *report.Table { return s.Table(title) }
}
