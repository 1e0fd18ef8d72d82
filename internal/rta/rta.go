// Package rta implements response-time analysis and admission control for
// sets of periodic DSP tasks sharing one heterogeneous FU configuration.
//
// The paper's solvers answer "what does ONE data-flow graph cost under ONE
// timing constraint"; this package answers the serving-scale question: given
// a fleet of periodic DAG tasks (each an existing HAP instance plus a period
// and a relative deadline), does the fleet fit a given FU configuration —
// and if not, what is the cheapest configuration that does?
//
// The analysis composes three layers:
//
//   - Per task, candidate operating points (assignment, critical path, work
//     per FU type, energy) are read off the PR-1 cost/deadline frontier for
//     tree-shaped DFGs, or produced by the PR-4 anytime ladder otherwise.
//   - Across tasks, federated capacity partitioning: heavy tasks (whose
//     sequential execution cannot meet the deadline) receive dedicated FU
//     shares and are bounded by a typed Graham/Han response-time bound;
//     light tasks are packed onto shared serialized channels and admitted by
//     an iterative deadline-monotonic RTA with non-preemptive blocking and
//     suspension-as-jitter padding (cf. TypedDAG federated scheduling).
//   - On top, CheapestConfig greedily searches a priced FU catalog for the
//     minimum-cost configuration that admits the whole set.
//
// Verdicts are sound by construction against the package sim hyperperiod
// simulator: an admitted set never misses a deadline under the simulated
// work-conserving schedulers (the differential tests check this over
// hundreds of randomized task sets).
package rta

import (
	"errors"
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// maxHorizon caps periods and deadlines so that all fixed-point arithmetic
// (response times, ceiling terms, hyperperiods in tests) stays far from
// int64 overflow.
const maxHorizon = 1 << 30

// maxTaskWork caps one task's total sequential work; together with
// maxPartition it keeps the exact rational arithmetic of the heavy bound
// inside int64.
const maxTaskWork = 1 << 40

// maxTasks bounds the admission problem size; admission is interactive
// (every task needs at least one HAP solve), so fleets beyond this belong in
// several requests.
const maxTasks = 256

// MaxPartition is the largest dedicated FU count per type a single heavy
// task may receive, and the default per-type ceiling of the configuration
// search. Keeping it at 16 bounds lcm(1..16)=720720, the common denominator
// of the exact heavy-bound arithmetic.
const MaxPartition = 16

// Task is one periodic DAG task: a HAP instance (graph + per-type
// time/cost table) released every Period control steps, each release having
// to finish within Deadline steps. Deadline 0 means implicit (= Period);
// the analysis requires constrained deadlines, Deadline <= Period.
type Task struct {
	Name     string
	Graph    *dfg.Graph
	Table    *fu.Table
	Period   int
	Deadline int
}

// RelDeadline returns the task's effective relative deadline (Period when
// Deadline is unset).
func (t Task) RelDeadline() int {
	if t.Deadline == 0 {
		return t.Period
	}
	return t.Deadline
}

// TaskSet is an ordered set of periodic tasks sharing one FU configuration.
type TaskSet []Task

// Config counts the FU instances of each type in the shared configuration:
// Config[k] instances of library type k. Its length must equal the K of
// every task's table.
type Config []int

// Total returns the summed FU instance count of the configuration.
func (c Config) Total() int {
	n := 0
	for _, m := range c {
		n += m
	}
	return n
}

// Clone returns a copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// ErrNoTasks is returned when an empty task set is submitted for admission.
var ErrNoTasks = errors.New("rta: task set is empty")

// Validate checks that the task set is well-formed: every task a valid HAP
// instance, all tables the same width K, periods and deadlines positive,
// constrained (Deadline <= Period) and under maxHorizon, and per-task total
// work under maxTaskWork. It runs in O(sum of table sizes).
func (s TaskSet) Validate() error {
	if len(s) == 0 {
		return ErrNoTasks
	}
	if len(s) > maxTasks {
		return fmt.Errorf("rta: %d tasks exceeds the supported maximum %d", len(s), maxTasks)
	}
	k := -1
	for i, t := range s {
		p := hap.Problem{Graph: t.Graph, Table: t.Table, Deadline: t.RelDeadline()}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("rta: task %d (%s): %w", i, t.Name, err)
		}
		if k < 0 {
			k = t.Table.K()
		} else if t.Table.K() != k {
			return fmt.Errorf("rta: task %d (%s) has %d FU types, task 0 has %d (all tasks must share one library)",
				i, t.Name, t.Table.K(), k)
		}
		if t.Period < 1 || t.Period > maxHorizon {
			return fmt.Errorf("rta: task %d (%s) period %d out of range [1, %d]", i, t.Name, t.Period, maxHorizon)
		}
		d := t.RelDeadline()
		if d < 1 || d > t.Period {
			return fmt.Errorf("rta: task %d (%s) deadline %d not in [1, period %d] (constrained deadlines required)",
				i, t.Name, d, t.Period)
		}
		var work int64
		for v := 0; v < t.Table.N(); v++ {
			work += int64(t.Table.MaxTime(v))
		}
		if work > maxTaskWork {
			return fmt.Errorf("rta: task %d (%s) total work %d exceeds the supported maximum %d", i, t.Name, work, maxTaskWork)
		}
	}
	return nil
}

// K returns the number of FU types shared by the (validated) task set.
func (s TaskSet) K() int {
	if len(s) == 0 {
		return 0
	}
	return s[0].Table.K()
}

// validateConfig checks a configuration against the set's library width.
func (s TaskSet) validateConfig(cfg Config) error {
	if len(cfg) != s.K() {
		return fmt.Errorf("rta: config covers %d FU types, task set has %d", len(cfg), s.K())
	}
	for k, m := range cfg {
		if m < 0 {
			return fmt.Errorf("rta: negative FU count %d for type %d", m, k)
		}
		if m > MaxPartition*maxTasks {
			return fmt.Errorf("rta: FU count %d for type %d exceeds the supported maximum %d", m, k, MaxPartition*maxTasks)
		}
	}
	return nil
}

// Placement records where one admitted task landed and at which operating
// point: the chosen assignment with its critical path, per-type work and
// energy, whether the task runs heavy (dedicated Partition FUs per type) or
// light (serialized on shared Channel), and the proven response-time bound.
type Placement struct {
	Task      int            `json:"task"`
	Assign    hap.Assignment `json:"-"`
	Heavy     bool           `json:"heavy"`
	Partition []int          `json:"partition,omitempty"` // heavy: dedicated FUs per type
	Channel   int            `json:"channel"`             // light: channel index; -1 for heavy
	Length    int            `json:"length"`              // critical path under Assign
	TotalWork int64          `json:"total_work"`          // sequential execution time
	Work      []int64        `json:"work"`                // per-type work
	Energy    int64          `json:"energy"`              // HAP cost of Assign
	Response  int            `json:"response"`            // proven response-time bound
}

// Verdict is the outcome of an admission test: whether the set fits,
// per-task placements when it does, the FU instances actually consumed, a
// reason when it does not, and how trustworthy the per-task operating
// points are (exact frontier, heuristic ladder, or timeout-degraded).
type Verdict struct {
	Admitted   bool        `json:"admitted"`
	Placements []Placement `json:"placements,omitempty"`
	// Channels lists, per shared channel, the member task indices in
	// priority order (deadline-monotonic).
	Channels [][]int `json:"channels,omitempty"`
	// Used counts the FU instances consumed per type (dedicated partitions
	// plus one per channel-owned type).
	Used    Config      `json:"used,omitempty"`
	Reason  string      `json:"reason,omitempty"`
	Quality hap.Quality `json:"quality"`
}
