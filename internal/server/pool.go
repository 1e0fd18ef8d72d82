package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// errQueueFull rejects a submission when the FIFO queue is at capacity —
// the server's admission control: better an immediate 503 than an unbounded
// backlog of heavy solves.
var errQueueFull = errors.New("server: job queue full")

// errDraining rejects submissions once shutdown has begun.
var errDraining = errors.New("server: draining, not accepting work")

// task is one unit of pool work. run is executed on a worker with the
// task's context; done is closed by the worker when run has returned (or
// when the task was skipped because its context was already dead).
type task struct {
	ctx  context.Context
	run  func(ctx context.Context)
	done chan struct{}
}

// pool is a bounded FIFO worker pool: a buffered channel is the queue
// (capacity = admission bound) and a fixed set of workers drains it in
// submission order. Cancellation is cooperative — a task whose context dies
// while queued is skipped, and running tasks see the cancellation through
// the context handed to run.
type pool struct {
	mu     sync.RWMutex // serializes queue close vs. concurrent submit
	queue  chan *task   // send under mu.RLock, close under mu.Lock; workers receive lock-free
	wg     sync.WaitGroup
	met    *metrics
	closed bool // guarded by mu
}

func newPool(workers, depth int, met *metrics) *pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &pool{queue: make(chan *task, depth), met: met}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// submit enqueues a task without blocking. It fails with errQueueFull when
// the queue is at capacity and errDraining after drain has begun.
func (p *pool) submit(t *task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errDraining
	}
	select {
	case p.queue <- t:
		p.met.queueDepth.Add(1)
		return nil
	default:
		p.met.queueRejected.Add(1)
		return errQueueFull
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		p.met.queueDepth.Add(-1)
		if t.ctx.Err() == nil {
			p.met.inFlight.Add(1)
			t.run(t.ctx)
			p.met.inFlight.Add(-1)
		}
		close(t.done)
	}
}

// drain stops admission and waits until every accepted task — queued and
// in-flight — has completed. It is idempotent.
func (p *pool) drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Job lifecycle states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Job is one asynchronous solve or admission. All mutable fields are
// guarded by mu; the HTTP layer reads them through view(). result holds the
// endpoint's payload type (*SolveResult for solves, *AdmitResult for
// admissions) behind any, so one store and one lifecycle serve both.
type Job struct {
	ID string

	mu       sync.Mutex
	status   string    // guarded by mu
	source   string    // guarded by mu
	result   any       // guarded by mu; *SolveResult or *AdmitResult, nil until done
	errMsg   string    // guarded by mu
	errCode  int       // guarded by mu; HTTP status a sync caller would have received
	created  time.Time // guarded by mu
	started  time.Time // guarded by mu
	finished time.Time // guarded by mu

	cancel context.CancelFunc // guarded by mu
	done   chan struct{}      // immutable after creation; closed exactly once by finish
}

// JobView is the wire form of a job's state.
type JobView struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Source   string     `json:"source,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   any        `json:"result,omitempty"`
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.ID,
		Status:  j.status,
		Source:  j.source,
		Error:   j.errMsg,
		Created: j.created,
		Result:  j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

func (j *Job) setRunning() {
	j.mu.Lock()
	if j.status == JobQueued {
		j.status = JobRunning
		j.started = time.Now()
	}
	j.mu.Unlock()
}

// finish records the outcome exactly once and releases waiters. It reports
// whether this call performed the transition; false means the job had already
// reached a terminal state and nothing changed, so callers can keep terminal
// counters exact even when a worker and a janitor race to settle the same job.
func (j *Job) finish(status, source string, res any, errMsg string, errCode int) bool {
	j.mu.Lock()
	if j.status == JobDone || j.status == JobFailed || j.status == JobCanceled {
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.source = source
	j.result = res
	j.errMsg = errMsg
	j.errCode = errCode
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
	return true
}

// jobStore tracks jobs by ID and bounds how many finished jobs are retained.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	order  []string        // guarded by mu; insertion order, for retention pruning
	retain int             // immutable after creation
}

func newJobStore(retain int) *jobStore {
	if retain < 1 {
		retain = 1
	}
	return &jobStore{jobs: make(map[string]*Job), retain: retain}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for ID uniqueness; fall back
		// to time, which is fine for a single process.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))
	}
	return hex.EncodeToString(b[:])
}

func (s *jobStore) add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	// Prune oldest *finished* jobs beyond the retention cap; live jobs are
	// never dropped.
	for len(s.jobs) > s.retain {
		pruned := false
		for i, id := range s.order {
			if old, ok := s.jobs[id]; ok {
				old.mu.Lock()
				finished := old.status == JobDone || old.status == JobFailed || old.status == JobCanceled
				old.mu.Unlock()
				if finished {
					delete(s.jobs, id)
					s.order = append(s.order[:i], s.order[i+1:]...)
					pruned = true
					break
				}
			} else {
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break
		}
	}
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns a snapshot of all tracked jobs, oldest first.
func (s *jobStore) list() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}
