package service

import (
	"context"
	"reflect"
	"testing"
)

// waitTerminal blocks until the job retires, on the job's own broadcast.
func waitTerminal(j *job) {
	for {
		j.mu.Lock()
		done, notify := j.state.terminal(), j.notify
		j.mu.Unlock()
		if done {
			return
		}
		<-notify
	}
}

// TestFinishedJobKeepsTerminalEvent: a finished job has released its replay
// buffer and its shards' results, and nothing a client can read changed: a
// reader attaching after completion receives the terminal state event (and
// only it), and the status document still reports every shard landed and
// the estimate the terminal event carried.
func TestFinishedJobKeepsTerminalEvent(t *testing.T) {
	svc, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, JobRequest{Config: fastConfig(), Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.WaitResult(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	var events []Event
	if err := cl.Stream(ctx, st.ID, func(e Event) bool { events = append(events, e); return true }); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(events) != 1 || !events[0].terminal() || events[0].State != StateDone {
		t.Fatalf("late reader got %+v, want exactly the terminal state event", events)
	}
	if events[0].Seq == 0 {
		t.Errorf("terminal event has Seq 0: the trimmed buffer must keep the original sequence number")
	}

	got, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if got.State != StateDone || got.ShardsDone != 2 {
		t.Errorf("status after release: state %s, shards_done %d, want done, 2", got.State, got.ShardsDone)
	}
	if got.Partial == nil || !reflect.DeepEqual(got.Partial, events[0].Partial) {
		t.Errorf("status partial %+v differs from the terminal event's %+v", got.Partial, events[0].Partial)
	}
	if got.Partial != nil && (got.Partial.Shards != 2 || got.Partial.Density != res.Results.Density) {
		t.Errorf("partial %+v does not describe the merged result (density %v)", got.Partial, res.Results.Density)
	}

	j, err := svc.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) != 1 || j.agg.results != nil {
		t.Errorf("finished job retains %d events and shard results %v", len(j.events), j.agg.results)
	}
}
