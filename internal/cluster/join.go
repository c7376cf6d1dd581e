package cluster

import (
	"context"
	"sync"
	"time"

	apiv1 "repro/spgemm/api/v1"
)

// JoinerConfig names a replica and its coordinator for the membership
// loop. Coordinator, Name and Advertise are required.
type JoinerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Name is the replica's stable name; Advertise the base URL the
	// coordinator should dial back.
	Name, Advertise string
	// Sleep replaces the wait between attempts in tests; nil means a
	// real timer. The loop re-checks Stop after every wait either way.
	Sleep func(time.Duration)
}

// The joiner's schedule.
const (
	// joinBackoffBase and joinBackoffMax bound the capped exponential
	// backoff between failed join attempts — the re-registration
	// schedule after a coordinator restart or partition.
	joinBackoffBase = 500 * time.Millisecond
	joinBackoffMax  = 8 * time.Second
	// joinTimeout bounds one join exchange — a join is a control-plane
	// call; it must never wait out a data-plane budget.
	joinTimeout = 2 * time.Second
)

// Joiner keeps one replica registered with a coordinator: an immediate
// join at startup, heartbeat joins at the coordinator's cadence, and
// capped-backoff re-registration whenever the coordinator is
// unreachable — so a restarted coordinator rebuilds its membership
// from the replicas themselves, with no stored state.
type Joiner struct {
	cfg    JoinerConfig
	client *apiv1.Client

	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu         sync.Mutex
	joins      int64
	failures   int64
	rejoinAcks int64
	lastErr    error
}

// NewJoiner builds the loop; Start (or Run) begins it.
func NewJoiner(cfg JoinerConfig) *Joiner {
	return &Joiner{
		cfg:    cfg,
		client: &apiv1.Client{BaseURL: cfg.Coordinator},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start runs the loop in a goroutine; Stop ends it.
func (j *Joiner) Start() {
	go j.Run()
}

// Stop ends the loop and waits for it to exit.
func (j *Joiner) Stop() {
	j.once.Do(func() { close(j.stop) })
	<-j.done
}

// Counters reports the loop's activity: joins_sent (successful
// registrations/heartbeats), join_failures (unreachable coordinator
// attempts) and rejoin_acks (joins the coordinator answered
// rejoined=true — it had us down, or never knew us after its restart).
func (j *Joiner) Counters() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return map[string]int64{
		"joins_sent":    j.joins,
		"join_failures": j.failures,
		"rejoin_acks":   j.rejoinAcks,
	}
}

// LastErr returns the most recent join failure (nil after a success).
func (j *Joiner) LastErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastErr
}

// Run executes the membership loop until Stop. Every iteration is one
// join exchange; the wait after it is the heartbeat cadence on
// success and the capped exponential backoff on failure (reset by the
// next success).
func (j *Joiner) Run() {
	defer close(j.done)
	backoff := joinBackoffBase
	for {
		ctx, cancel := context.WithTimeout(context.Background(), joinTimeout)
		resp, err := j.client.Join(ctx, apiv1.JoinRequest{Name: j.cfg.Name, URL: j.cfg.Advertise})
		cancel()
		var wait time.Duration
		j.mu.Lock()
		if err != nil {
			j.failures++
			j.lastErr = err
			wait = backoff
			backoff *= 2
			if backoff > joinBackoffMax {
				backoff = joinBackoffMax
			}
		} else {
			j.joins++
			j.lastErr = nil
			if resp.Rejoined {
				j.rejoinAcks++
			}
			backoff = joinBackoffBase
			wait = time.Duration(resp.HeartbeatSec * float64(time.Second))
			if wait <= 0 {
				wait = heartbeat // the coordinator's own cadence
			}
		}
		j.mu.Unlock()
		if !j.sleepOrStop(wait) {
			return
		}
	}
}

// sleepOrStop waits for the duration (via the injected clock when
// set), returning false when Stop fired.
func (j *Joiner) sleepOrStop(d time.Duration) bool {
	if j.cfg.Sleep != nil {
		j.cfg.Sleep(d)
		select {
		case <-j.stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.stop:
		return false
	case <-t.C:
		return true
	}
}
