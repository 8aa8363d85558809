package sched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/problems"
)

// newTestRun builds a run the way Run does — setup, then epoch 0 of the
// schedule — but starts no worker, so a test can drive the mailboxes and
// the safepoint hooks by hand.
func newTestRun(p core.Problem[int], g *graph.Graph, initial []int, o Options) *run[int] {
	n := g.N()
	r := &run[int]{
		p:        p,
		g:        g,
		cmp:      p.Cmp(),
		opts:     o,
		mon:      engine.NewMonitor(p, engine.NewShards(p.Cmp(), initial[:n], 1), engine.NewPool(1, 1)),
		initVals: initial,
	}
	r.setup(n)
	if o.Dynamics != nil {
		r.ap = o.Dynamics.NewApplier(g, o.Seed)
		r.applyEpoch(0)
	}
	return r
}

// request is the message agent from sends when it initiates; its state
// tags it so a test can tell messages apart.
func request(from int32, tag int) message[int] {
	return message[int]{from: from, kind: msgRequest, state: tag}
}

// slotOf names the slot message m, taken from agent a's inbox, was
// pushed into: a request sits in its sender's slot, a reply in the slot
// of the initiator it answers.
func slotOf(a int32, m message[int]) int32 {
	if m.kind == msgRequest {
		return m.from
	}
	return a
}

// drainMsgs detaches agent a's inbox and walks the chain the way a
// worker does, returning the messages in chain order.
func drainMsgs(r *run[int], a int32) []message[int] {
	var got []message[int]
	for s := r.detachLocked(a); s != endOfChain; {
		var m message[int]
		m, s = r.takeMsg(s)
		got = append(got, m)
	}
	return got
}

// drain empties agent a's inbox and returns the slots in chain order.
func drain(r *run[int], a int32) []int32 {
	var got []int32
	for _, m := range drainMsgs(r, a) {
		got = append(got, slotOf(a, m))
	}
	return got
}

// TestInboxFIFOAcrossGrowth: two join epochs land while messages are in
// flight — to founding agents on both shards at the first, and to a
// joiner of the first at the second. Every inbox must come out whole and
// in push order, with each message's payload intact: growth appends
// slots and inboxes and never touches a chain.
func TestInboxFIFOAcrossGrowth(t *testing.T) {
	initial := []int{9, 4, 7, 1, 8, 2, 6, 5, 30, 31, 32, 33}
	r := newTestRun(problems.NewMin(), graph.Ring(8), initial, Options{
		Seed: 1, Workers: 2, OpsPerEpoch: 100,
		Dynamics: dynamics.NewSchedule(dynamics.Join(2, "ring", 1), dynamics.Join(2, "ring", 2)),
	})
	push := func(to, slot int32) { r.pushMsg(to, slot, request(slot, 100+int(slot))) }

	// Push orders are not slot orders, so a chain rebuilt in slot order
	// shows.
	push(0, 3)
	push(0, 1)
	push(7, 5) // agent 7 homes on the second shard
	push(0, 2)
	push(7, 4)
	r.pushMsg(6, 6, message[int]{from: 7, kind: msgReplyOK, state: 106})
	r.applyEpoch(1)
	if len(r.states) != 10 || len(r.inboxes) != 10 {
		t.Fatalf("after the first join: %d agents, %d inboxes, want 10", len(r.states), len(r.inboxes))
	}
	push(0, 9) // a joiner's request queues behind the founders'
	push(9, 8) // messages in flight to a joiner
	push(9, 0)
	r.applyEpoch(2)
	if len(r.states) != 12 || len(r.inboxes) != 12 {
		t.Fatalf("after the second join: %d agents, %d inboxes, want 12", len(r.states), len(r.inboxes))
	}
	push(9, 10)
	push(0, 11)

	want := map[int32][]int32{0: {3, 1, 2, 9, 11}, 6: {6}, 7: {5, 4}, 9: {8, 0, 10}}
	for a := int32(0); a < int32(len(r.inboxes)); a++ {
		var got []int32
		for _, m := range drainMsgs(r, a) {
			slot := slotOf(a, m)
			if m.state != 100+int(slot) {
				t.Errorf("agent %d: message of slot %d carries %d, want %d", a, slot, m.state, 100+slot)
			}
			got = append(got, slot)
		}
		if !slices.Equal(got, want[a]) {
			t.Errorf("agent %d: inbox drained as %v, want %v", a, got, want[a])
		}
	}
	for s, l := range r.link {
		if l != notLinked {
			t.Errorf("slot %d still linked (%d) after every inbox drained", s, l)
		}
	}
}

// TestInboxSecondMessagePanics: a slot holds the one message its
// exchange has in flight, so pushing into a slot that sits in an inbox
// is an invariant breach, whichever inbox the second push targets.
func TestInboxSecondMessagePanics(t *testing.T) {
	r := newTestRun(problems.NewMin(), graph.Ring(4), []int{4, 3, 2, 1}, Options{Seed: 1, Workers: 1})
	r.pushMsg(0, 1, request(1, 0))
	for _, to := range []int32{0, 2} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "second message in flight for one exchange") {
					t.Errorf("second push into a linked slot (to %d): recovered %q, want the in-flight panic", to, msg)
				}
			}()
			r.pushMsg(to, 1, request(1, 0))
		}()
	}
	if got := drain(r, 0); !slices.Equal(got, []int32{1}) {
		t.Errorf("inbox 0 after the rejected pushes: %v, want [1]", got)
	}
	// Popped, the slot is free again.
	r.pushMsg(2, 1, request(1, 0))
	if got := drain(r, 2); !slices.Equal(got, []int32{1}) {
		t.Errorf("inbox 2 after re-use of slot 1: %v, want [1]", got)
	}
}

// TestMessageToRunningAgentServedNextEvent: a claim detaches the
// agent's whole inbox, so a message pushed while the agent runs starts a
// fresh chain and marks the agent for a repoll. finish must put the
// agent on its mail queue, ahead of the run queue, and the next claim
// must be a mail event that hands over that message.
func TestMessageToRunningAgentServedNextEvent(t *testing.T) {
	r := newTestRun(problems.NewMin(), graph.Ring(4), []int{4, 3, 2, 1}, Options{Seed: 1, Workers: 1})
	own := &r.shards[0]
	a, chain, mail, ok := r.next(own, 0)
	if !ok || a != 0 || chain != endOfChain || mail {
		t.Fatalf("first claim: agent %d chain %d mail %v ok %v, want agent 0 from the run queue with an empty inbox", a, chain, mail, ok)
	}
	r.deliver(0, 1, request(1, 7))
	if r.flags[0]&flagRepoll == 0 {
		t.Fatal("a message to a running agent did not set its repoll flag")
	}
	r.finish(own, 0, outPark, 0)
	if r.flags[0]&flagMail == 0 {
		t.Fatal("finish parked an agent with a message waiting")
	}
	a, chain, mail, ok = r.next(own, 0)
	if !ok || a != 0 || !mail {
		t.Fatalf("second claim: agent %d mail %v ok %v, want agent 0 from the mail queue", a, mail, ok)
	}
	m, rest := r.takeMsg(chain)
	if m != request(1, 7) || rest != endOfChain {
		t.Errorf("second claim of agent 0 handed over %+v (next %d), want the request from 1 alone", m, rest)
	}
}

// TestSettleAdoptsReplyMidChain: a halt leaves agent 0's OK reply behind
// an unserved request and in front of another. settle must walk the
// whole chain, drop both requests and adopt the reply — the partner has
// already adopted the other half of that pair transition.
func TestSettleAdoptsReplyMidChain(t *testing.T) {
	r := newTestRun(problems.NewSum(), graph.Complete(4), []int{5, 1, 2, 3}, Options{Seed: 1, Workers: 2})
	r.awaiting[0] = true
	r.pushMsg(0, 1, request(1, 1))
	r.pushMsg(0, 0, message[int]{from: 2, kind: msgReplyOK, state: 0})
	r.pushMsg(0, 3, request(3, 3))
	r.settle()
	if r.states[0] != 0 || r.awaiting[0] {
		t.Errorf("agent 0 after settle: state %d awaiting %v, want the reply's 0 adopted", r.states[0], r.awaiting[0])
	}
	if got := r.totals().properSteps; got != 1 {
		t.Errorf("settle counted %d proper steps, want 1", got)
	}
	if got := r.states[1] + r.states[3]; got != 4 {
		t.Errorf("settle changed the unserved requesters: states[1]+states[3] = %d, want 4", got)
	}
	for a := range r.inboxes {
		if got := drain(r, int32(a)); len(got) != 0 {
			t.Errorf("inbox %d not emptied by settle: %v", a, got)
		}
	}
}
