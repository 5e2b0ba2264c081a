// Package runner is the experiment-execution engine: it fans
// independent simulation jobs out across a bounded pool of worker
// goroutines while honouring a small dependency DAG (baseline runs
// complete before the technique runs that normalise against them).
//
// The design goals, in order:
//
//   - Determinism. A sweep scheduled on the runner produces results
//     that are byte-identical regardless of the worker count: every
//     job's inputs (configuration, workload, derived seed) are fixed
//     at submission time, jobs share no mutable state, and callers
//     read results back in submission order after Run returns.
//   - Robustness. A panicking job is captured (with its stack) and
//     reported as an error instead of killing a 30-minute sweep; the
//     first failure cancels the run — queued jobs are skipped and the
//     error is returned once in-flight jobs drain.
//   - Visibility. An optional progress reporter prints completed/total
//     counts, the in-flight jobs and an ETA while a sweep runs.
//
// The generic layer (Pool, Task) knows nothing about simulations;
// sweep.go layers simulation jobs, baseline deduplication by a typed
// key, and the paper's baseline-vs-technique comparisons on top.
package runner

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// taskState tracks a task through its lifecycle.
type taskState int

const (
	// statePending: submitted, not yet picked up by a worker.
	statePending taskState = iota
	// stateRunning: a worker is executing the task.
	stateRunning
	// stateDone: finished without error.
	stateDone
	// stateFailed: finished with an error (or a captured panic).
	stateFailed
	// stateSkipped: never started because the run was cancelled or a
	// dependency failed.
	stateSkipped
)

// Task is one schedulable unit of work. Tasks are created with
// Pool.Task and must not be constructed directly.
type Task struct {
	id    int
	label string
	fn    func(context.Context) error
	deps  []*Task

	// Guarded by the owning pool's mutex during Run.
	state     taskState
	err       error
	dependent []*Task // tasks waiting on this one (this round)
	waits     int     // unfinished dependencies (this round)
}

// Label returns the task's display label.
func (t *Task) Label() string { return t.label }

// ID returns the task's submission sequence number, fixed at Pool.Task
// time. It is stable across runs and worker counts, which makes it a
// deterministic key for per-task artifacts.
func (t *Task) ID() int { return t.id }

// Err returns the task's terminal error: nil when it completed, the
// job's error (or captured panic) when it failed, and a skip error
// when it never ran. Valid after Pool.Run returns.
func (t *Task) Err() error {
	switch t.state {
	case stateFailed:
		return t.err
	case stateSkipped:
		return fmt.Errorf("runner: task %q skipped: %w", t.label, t.err)
	default:
		return nil
	}
}

// Done reports whether the task has completed successfully.
func (t *Task) Done() bool { return t.state == stateDone }

// TaskEventType classifies a task lifecycle event.
type TaskEventType int

const (
	// TaskStarted: a worker picked the task up.
	TaskStarted TaskEventType = iota
	// TaskDone: the task completed successfully.
	TaskDone
	// TaskFailed: the task returned an error or panicked.
	TaskFailed
	// TaskSkipped: the task never ran (cancelled run or failed
	// dependency).
	TaskSkipped
)

// String names the event type (used verbatim in serving-layer SSE
// payloads).
func (t TaskEventType) String() string {
	switch t {
	case TaskStarted:
		return "started"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	case TaskSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// TaskEvent is one per-task progress notification delivered to a
// WithTaskHook observer. Finished counts tasks that have reached a
// terminal state (done, failed or skipped) including this one; Total
// is the number of tasks in the current Run.
type TaskEvent struct {
	Type   TaskEventType
	TaskID int
	Label  string
	// Err is set for TaskFailed and TaskSkipped events.
	Err      error
	Finished int
	Total    int
}

// Pool schedules tasks over a bounded set of worker goroutines.
// Run may be called repeatedly: each call executes the tasks
// submitted since the last call (plus any that were skipped), so a
// long-lived pool supports incremental sweeps that reuse earlier
// results (e.g. baselines shared across experiments).
type Pool struct {
	workers  int
	tasks    []*Task
	progress io.Writer
	label    string
	hook     func(TaskEvent)
}

// Option configures a Pool.
type Option func(*Pool)

// progressTick is how often WithProgress prints a progress line.
const progressTick = 2 * time.Second

// WithProgress makes the pool print progress lines (completed/total,
// running jobs, ETA) to w while Run executes.
func WithProgress(w io.Writer) Option {
	return func(p *Pool) { p.progress = w }
}

// WithTaskHook registers a per-task progress callback: fn receives
// one TaskStarted event when a worker picks a task up and exactly one
// terminal event (TaskDone, TaskFailed or TaskSkipped) per scheduled
// task per Run. fn is called from worker goroutines — concurrently,
// and never with the pool's lock held, so it may block briefly (e.g.
// to fan events out to SSE subscribers) without stalling scheduling
// decisions; a slow hook still delays the worker that calls it.
func WithTaskHook(fn func(TaskEvent)) Option {
	return func(p *Pool) { p.hook = fn }
}

// WithLabel names the pool in progress output (default "runner").
func WithLabel(name string) Option {
	return func(p *Pool) {
		if name != "" {
			p.label = name
		}
	}
}

// NewPool builds a pool with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int, opts ...Option) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, label: "runner"}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Task submits a unit of work that runs after every task in deps has
// completed. fn must be self-contained: it may not touch state shared
// with other tasks except through its declared dependencies. Nil
// dependencies are ignored (so optional deps need no special-casing
// at call sites).
func (p *Pool) Task(label string, fn func(context.Context) error, deps ...*Task) *Task {
	if fn == nil {
		panic("runner: nil task function")
	}
	t := &Task{id: len(p.tasks), label: label, fn: fn}
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.id >= len(p.tasks) || p.tasks[d.id] != d {
			panic(fmt.Sprintf("runner: task %q depends on a task from another pool", label))
		}
		t.deps = append(t.deps, d)
	}
	p.tasks = append(p.tasks, t)
	return t
}

// taskHeap orders pending-ready tasks by submission id, so workers
// pick jobs up in a deterministic order (results never depend on this
// order; it only keeps progress output and cache warm-up stable).
type taskHeap []*Task

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return h[i].id < h[j].id }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Run executes every not-yet-completed task, honouring dependencies,
// with at most the pool's worker count in flight. It returns the
// first error encountered (a task error, a captured panic, or the
// context's error); on error the remaining queued tasks are skipped.
// Tasks completed by an earlier Run are not re-run, and their results
// satisfy dependencies of newly submitted tasks.
func (p *Pool) Run(ctx context.Context) error {
	var pending []*Task
	for _, t := range p.tasks {
		if t.state == stateDone {
			continue
		}
		// Reset tasks skipped (or failed) by an earlier, aborted Run
		// so a corrected resubmission can retry the sweep's remainder.
		t.state = statePending
		t.err = nil
		t.waits = 0
		t.dependent = nil
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return nil
	}
	for _, t := range pending {
		for _, d := range t.deps {
			if d.state != stateDone {
				t.waits++
				d.dependent = append(d.dependent, t)
			}
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		cond     = sync.Cond{L: &mu}
		ready    taskHeap
		running  int
		finished int
		firstErr error
		start    = time.Now()
	)
	for _, t := range pending {
		if t.waits == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)

	total := len(pending)

	// evq queues TaskEvents produced while holding mu; workers deliver
	// them to the hook after unlocking (the hook must never run under
	// the pool lock). Guarded by mu.
	var evq []TaskEvent
	queueEvent := func(t *Task, typ TaskEventType, err error) {
		if p.hook == nil {
			return
		}
		evq = append(evq, TaskEvent{
			Type: typ, TaskID: t.id, Label: t.label, Err: err,
			Finished: finished, Total: total,
		})
	}
	// drainEvents delivers queued events; caller must NOT hold mu.
	drainEvents := func() {
		if p.hook == nil {
			return
		}
		mu.Lock()
		evs := evq
		evq = nil
		mu.Unlock()
		for _, ev := range evs {
			p.hook(ev)
		}
	}

	// settle marks t terminal, propagates to dependents and wakes
	// workers. Caller holds mu.
	settle := func(t *Task, st taskState, err error) {
		t.state = st
		t.err = err
		finished++
		switch st {
		case stateDone:
			queueEvent(t, TaskDone, nil)
		case stateFailed:
			queueEvent(t, TaskFailed, err)
		case stateSkipped:
			queueEvent(t, TaskSkipped, err)
		}
		if st == stateDone {
			for _, dep := range t.dependent {
				dep.waits--
				if dep.waits == 0 && dep.state == statePending {
					heap.Push(&ready, dep)
				}
			}
		} else {
			if firstErr == nil {
				firstErr = err
				cancel()
			}
			// Skip the whole downstream cone.
			var skip func(*Task, error)
			skip = func(d *Task, cause error) {
				for _, dd := range d.dependent {
					if dd.state != statePending {
						continue
					}
					dd.state = stateSkipped
					dd.err = cause
					finished++
					queueEvent(dd, TaskSkipped, cause)
					skip(dd, cause)
				}
			}
			skip(t, fmt.Errorf("dependency %q failed: %w", t.label, err))
		}
		t.dependent = nil
		cond.Broadcast()
	}

	run := func(t *Task) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("runner: task %q panicked: %v\n%s", t.label, r, debug.Stack())
			}
		}()
		return t.fn(ctx)
	}

	workers := p.workers
	if workers > len(pending) {
		workers = len(pending)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for len(ready) == 0 && finished < len(pending) && firstErr == nil && ctx.Err() == nil {
					cond.Wait()
				}
				if finished >= len(pending) || firstErr != nil || ctx.Err() != nil {
					// Drain: mark still-pending ready tasks skipped so
					// Run's accounting terminates for every worker.
					cause := firstErr
					if cause == nil {
						cause = ctx.Err()
					}
					for _, t := range ready {
						if t.state == statePending {
							t.state = stateSkipped
							t.err = cause
							finished++
							queueEvent(t, TaskSkipped, cause)
						}
					}
					ready = ready[:0]
					cond.Broadcast()
					mu.Unlock()
					drainEvents()
					mu.Lock()
					return
				}
				t := heap.Pop(&ready).(*Task)
				t.state = stateRunning
				running++
				startEv := TaskEvent{Type: TaskStarted, TaskID: t.id, Label: t.label, Finished: finished, Total: total}
				mu.Unlock()
				if p.hook != nil {
					p.hook(startEv)
				}
				err := run(t)
				mu.Lock()
				running--
				if err != nil {
					settle(t, stateFailed, err)
				} else {
					settle(t, stateDone, nil)
				}
				mu.Unlock()
				drainEvents()
				mu.Lock()
			}
		}()
	}

	// Progress reporter.
	stopProgress := make(chan struct{})
	var progressWG sync.WaitGroup
	if p.progress != nil {
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			ticker := time.NewTicker(progressTick)
			defer ticker.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-ticker.C:
				}
				mu.Lock()
				done, inFlight, total := finished, running, len(pending)
				mu.Unlock()
				elapsed := time.Since(start)
				eta := "?"
				if done > 0 && done < total {
					rem := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
					eta = rem.Round(time.Second).String()
				}
				fmt.Fprintf(p.progress, "[%s] %d/%d jobs done, %d running, %.1fs elapsed, eta %s\n",
					p.label, done, total, inFlight, elapsed.Seconds(), eta)
			}
		}()
	}

	wg.Wait()
	drainEvents() // anything queued after the last worker's drain
	close(stopProgress)
	progressWG.Wait()

	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.progress != nil {
		mu.Lock()
		total := len(pending)
		mu.Unlock()
		fmt.Fprintf(p.progress, "[%s] %d jobs done in %.1fs (%d workers)\n",
			p.label, total, time.Since(start).Seconds(), workers)
	}
	return nil
}
