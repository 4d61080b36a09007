package replay

import (
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/runtime"
)

// RetroOptions configures a retroactive run.
type RetroOptions struct {
	// MaxSchedules bounds the exploration (default 64).
	MaxSchedules int
	// Invariant, when set, runs against the development database after each
	// schedule; its error is recorded as the schedule's invariant violation.
	Invariant func(dev *db.DB) error
	// DisableConflictPruning branches on every ready request, even
	// non-conflicting ones (naive enumeration; ablation A3).
	DisableConflictPruning bool
	// SinglePhase treats all given requests as one concurrent group,
	// overriding the interval-overlap heuristic. Use it when the developer
	// knows which requests to test as concurrent (the paper's workflow:
	// "re-execute the original two conflicting subscription requests").
	SinglePhase bool
}

// RequestOutcome is one request's result under one schedule.
type RequestOutcome struct {
	ReqID      string
	Result     any
	Err        error
	ResultJSON string
	// ChangedFromOriginal reports whether the result differs from the
	// original production execution's recorded result.
	ChangedFromOriginal bool
}

// ScheduleResult is the outcome of one explored interleaving.
type ScheduleResult struct {
	// Order is the sequence of request IDs in the order their transactions
	// were granted (one entry per granted transaction).
	Order []string
	// Requests holds per-request outcomes, in phase order.
	Requests []RequestOutcome
	// InvariantErr is the post-schedule invariant violation, if any.
	InvariantErr error
}

// RetroReport is the outcome of a retroactive run.
type RetroReport struct {
	ReqIDs    []string
	Phases    [][]string
	Schedules []ScheduleResult
	// DecisionPoints counts scheduler states with >1 ready request;
	// BranchedPoints counts those actually branched after conflict pruning.
	DecisionPoints int
	BranchedPoints int
	// Complete reports that every schedule was explored: MaxSchedules did
	// not cut the search short.
	Complete bool
}

// AllInvariantsHold reports whether the search was complete and no explored
// schedule violated the invariant or returned a request error.
func (r *RetroReport) AllInvariantsHold() bool {
	if !r.Complete {
		return false
	}
	for _, s := range r.Schedules {
		if s.InvariantErr != nil {
			return false
		}
		for _, rq := range s.Requests {
			if rq.Err != nil {
				return false
			}
		}
	}
	return true
}

// Run re-executes the given past requests with the handlers installed by
// register (typically the modified code under test), in every schedule.
func (r *Replayer) Run(reqIDs []string, register func(*runtime.App), opts RetroOptions) (*RetroReport, error) {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 64
	}
	w, release, err := r.load(reqIDs)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := r.fillFootprints(w.reqs); err != nil {
		return nil, err
	}
	sort.SliceStable(w.reqs, func(i, j int) bool { return w.reqs[i].start < w.reqs[j].start })
	var phases [][]int
	if opts.SinglePhase {
		phases = [][]int{make([]int, len(w.reqs))}
		for i := range w.reqs {
			phases[0][i] = i
		}
	} else {
		phases = partitionPhases(w.reqs)
	}

	report := &RetroReport{ReqIDs: reqIDs}
	for _, ph := range phases {
		ids := make([]string, len(ph))
		for i, idx := range ph {
			ids[i] = w.reqs[idx].id
		}
		report.Phases = append(report.Phases, ids)
	}

	// Depth-first exploration over choice prefixes.
	type prefix []int
	stack := []prefix{nil}
	seen := map[string]bool{}
	for len(stack) > 0 && len(report.Schedules) < opts.MaxSchedules {
		pfx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		run, err := r.runSchedule(w, phases, register, pfx, opts, nil)
		if err != nil {
			return nil, err
		}
		key := strings.Join(run.result.Order, ",")
		if !seen[key] {
			seen[key] = true
			report.Schedules = append(report.Schedules, run.result)
		}
		report.DecisionPoints += run.decisionPoints
		// Branch on alternatives at decision points beyond the prefix.
		for i := len(pfx); i < len(run.decisions); i++ {
			d := run.decisions[i]
			for _, alt := range d.branchable {
				if alt == d.chosen {
					continue
				}
				np := make(prefix, i+1)
				copy(np, run.chosenPrefix[:i])
				np[i] = alt
				stack = append(stack, np)
				report.BranchedPoints++
			}
		}
	}
	report.Complete = len(stack) == 0
	return report, nil
}

// fillFootprints records which traced tables each request read or wrote.
func (r *Replayer) fillFootprints(reqs []*request) error {
	byID := make(map[string]*request, len(reqs))
	for _, q := range reqs {
		byID[q.id] = q
	}
	for _, appTable := range r.prod.Store().Tables() {
		if r.prov.EventTable(appTable) == "" {
			continue
		}
		ids, err := r.prov.RequestsTouchingTable(appTable)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if q, ok := byID[id]; ok {
				q.tables[strings.ToLower(appTable)] = true
			}
		}
	}
	return nil
}

// partitionPhases groups requests, sorted by start, whose original
// intervals overlap (transitively) into concurrent phases.
func partitionPhases(reqs []*request) [][]int {
	var phases [][]int
	var cur []int
	var curEnd uint64
	for i, q := range reqs {
		if len(cur) == 0 || q.start <= curEnd {
			cur = append(cur, i)
			curEnd = max(curEnd, q.end)
			continue
		}
		phases = append(phases, cur)
		cur = []int{i}
		curEnd = q.end
	}
	if len(cur) > 0 {
		phases = append(phases, cur)
	}
	return phases
}

func conflict(a, b *request) bool {
	for t := range a.tables {
		if b.tables[t] {
			return true
		}
	}
	return false
}

// --- schedule execution -----------------------------------------------------

// decision is a scheduler state where more than one conflicting request
// was ready.
type decision struct {
	branchable []int // ready requests worth branching on (after pruning)
	chosen     int
}

type schedEvent struct {
	idx    int
	kind   uint8
	result any
	err    error
}

const (
	evBlocked  uint8 = iota // the request waits at a transaction boundary
	evFinished              // the request returned
)

type runOutcome struct {
	result         ScheduleResult
	steps          [][]Step // per request
	foreign        []uint64 // outside transactions applied, in order
	decisions      []decision
	chosenPrefix   []int
	decisionPoints int
}

// runSchedule re-executes w's requests on a fresh clone of the base,
// granting their transactions one at a time in the interleaving chosen by
// pfx (choices at the first len(pfx) decision points; defaults afterwards).
func (r *Replayer) runSchedule(w *window, phases [][]int, register func(*runtime.App), pfx []int, opts RetroOptions, onBreak func(Breakpoint)) (*runOutcome, error) {
	dev, err := r.prod.CloneAt(w.base)
	if err != nil {
		return nil, err
	}
	app := runtime.New(dev)
	register(app)

	n := len(w.reqs)
	ic := &interceptor{
		w:       w,
		dev:     dev,
		byReq:   make(map[string]int, n),
		events:  make(chan schedEvent, n),
		proceed: make([]chan struct{}, n),
		onBreak: onBreak,
		steps:   make([][]Step, n),
		applied: w.base,
	}
	for i, q := range w.reqs {
		ic.byReq[q.id] = i
		ic.proceed[i] = make(chan struct{})
	}
	app.SetTxnInterceptor(ic)

	out := &runOutcome{}
	outcomes := make([]RequestOutcome, n)
	done := make([]bool, n)
	blocked := map[int]bool{}

	// pump processes scheduler events until cond holds. Events can arrive
	// from any scheduled request (e.g. several requests reaching their
	// first transaction just after a phase launch).
	pump := func(cond func() bool) {
		for !cond() {
			ev := <-ic.events
			if ev.kind == evBlocked {
				blocked[ev.idx] = true
				continue
			}
			q := w.reqs[ev.idx]
			done[ev.idx] = true
			outcomes[ev.idx] = RequestOutcome{ReqID: q.id, Result: ev.result, Err: ev.err, ResultJSON: runtime.ResultJSON(ev.result)}
			if q.origRes != "<unrepresentable>" {
				outcomes[ev.idx].ChangedFromOriginal = outcomes[ev.idx].ResultJSON != q.origRes
			}
		}
	}

	decisionIdx := 0
	for _, phase := range phases {
		// Launch the phase and wait for every member to reach its first
		// transaction boundary (or finish without touching the database).
		for _, idx := range phase {
			go func(idx int) {
				q := w.reqs[idx]
				res, err := app.InvokeWithReqID(q.id, q.handler, q.args)
				ic.events <- schedEvent{idx: idx, kind: evFinished, result: res, err: err}
			}(idx)
		}
		pump(func() bool {
			for _, idx := range phase {
				if !blocked[idx] && !done[idx] {
					return false
				}
			}
			return true
		})
		// Grant transactions until the phase drains.
		for len(blocked) > 0 {
			candidates := make([]int, 0, len(blocked))
			for idx := range blocked {
				candidates = append(candidates, idx)
			}
			sort.Ints(candidates)

			// Conflict pruning: branch only on candidates that conflict
			// with another unfinished scheduled request.
			var branchable []int
			if opts.DisableConflictPruning {
				branchable = candidates
			} else {
				for _, c := range candidates {
					for u := range w.reqs {
						if u != c && !done[u] && conflict(w.reqs[c], w.reqs[u]) {
							branchable = append(branchable, c)
							break
						}
					}
				}
			}

			chosen := candidates[0]
			if len(candidates) > 1 {
				out.decisionPoints++
				if decisionIdx < len(pfx) {
					want := pfx[decisionIdx]
					for _, c := range candidates {
						if c == want {
							chosen = c
						}
					}
				} else if len(branchable) > 0 {
					chosen = branchable[0]
				}
				if len(branchable) > 1 {
					out.decisions = append(out.decisions, decision{branchable: branchable, chosen: chosen})
					out.chosenPrefix = append(out.chosenPrefix, chosen)
					decisionIdx++
				}
			}

			delete(blocked, chosen)
			out.result.Order = append(out.result.Order, w.reqs[chosen].id)
			ic.proceed[chosen] <- struct{}{}
			pump(func() bool { return blocked[chosen] || done[chosen] })
		}
	}

	out.result.Requests = outcomes
	out.steps, out.foreign = ic.steps, ic.foreign
	if opts.Invariant != nil {
		out.result.InvariantErr = opts.Invariant(dev)
	}
	return out, nil
}
