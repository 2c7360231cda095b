package p2p

import (
	"fmt"
	"testing"
	"time"
)

func mustJoin(t *testing.T, n *Network, id NodeID) Endpoint {
	t.Helper()
	ep, err := n.Join(id)
	if err != nil {
		t.Fatalf("Join(%s): %v", id, err)
	}
	return ep
}

func recvWithin(t *testing.T, ep Endpoint, d time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(d):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func TestSendDirect(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, b, time.Second)
	if m.From != "a" || m.Topic != "ping" || string(m.Payload) != "hello" {
		t.Fatalf("unexpected message %+v", m)
	}
	select {
	case m := <-a.Inbox():
		t.Fatalf("sender received its own message: %+v", m)
	default:
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	eps := make([]Endpoint, 5)
	for i := range eps {
		eps[i] = mustJoin(t, n, NodeID(fmt.Sprintf("n%d", i)))
	}
	if err := eps[0].BroadcastMsg("block", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		m := recvWithin(t, eps[i], time.Second)
		if m.Topic != "block" {
			t.Fatalf("node %d got topic %q", i, m.Topic)
		}
	}
	select {
	case <-eps[0].Inbox():
		t.Fatal("broadcast echoed to sender")
	default:
	}
}

func TestSendUnknownPeer(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	if err := a.Send("ghost", "t", nil); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestSendBroadcastIDRejected(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	if err := a.Send(Broadcast, "t", nil); err == nil {
		t.Fatal("Send with Broadcast destination accepted")
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	mustJoin(t, n, "a")
	if _, err := n.Join("a"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := NewNetwork(Config{BaseLatency: 30 * time.Millisecond})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	start := time.Now()
	if err := a.Send("b", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("message arrived after %v, want >= ~30ms", el)
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	n := NewNetwork(Config{LossRate: 1.0})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	for i := 0; i < 10; i++ {
		if err := a.Send("b", "t", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-b.Inbox():
		t.Fatalf("message delivered despite 100%% loss: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	s := n.Stats()
	if s.MessagesDropped != 10 {
		t.Fatalf("dropped = %d, want 10", s.MessagesDropped)
	}
}

func TestPartitionBlocksCrossGroup(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	c := mustJoin(t, n, "c")
	n.SetPartitions(map[NodeID]int{"a": 0, "b": 0, "c": 1})

	if err := a.BroadcastMsg("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	select {
	case <-c.Inbox():
		t.Fatal("message crossed partition")
	case <-time.After(20 * time.Millisecond):
	}

	// Heal and verify delivery resumes.
	n.SetPartitions(nil)
	if err := a.Send("c", "t", []byte("y")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, c, time.Second)
}

func TestStatsCountBytesPerTopic(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	mustJoin(t, n, "b")
	mustJoin(t, n, "c")
	payload := make([]byte, 100)
	if err := a.BroadcastMsg("data", payload); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.MessagesSent != 2 {
		t.Fatalf("MessagesSent = %d, want 2 (one per recipient)", s.MessagesSent)
	}
	if s.BytesByTopic["data"] != s.BytesSent {
		t.Fatalf("topic bytes %d != total bytes %d", s.BytesByTopic["data"], s.BytesSent)
	}
	if s.BytesSent < 200 {
		t.Fatalf("BytesSent = %d, want >= 200 for 2 copies of 100-byte payload", s.BytesSent)
	}
	n.ResetStats()
	if s2 := n.Stats(); s2.BytesSent != 0 || s2.MessagesSent != 0 {
		t.Fatalf("ResetStats left counters: %+v", s2)
	}
}

func TestInboxOverflowDrops(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	mustJoin(t, n, "b") // never drained
	for i := 0; i < inboxSize+3; i++ {
		if err := a.Send("b", "t", nil); err != nil {
			t.Fatal(err)
		}
	}
	s := n.Stats()
	if s.MessagesDelivered != inboxSize {
		t.Fatalf("delivered = %d, want %d", s.MessagesDelivered, inboxSize)
	}
	if s.MessagesDropped != 3 {
		t.Fatalf("dropped = %d, want 3", s.MessagesDropped)
	}
}

func TestCloseClosesInboxes(t *testing.T) {
	n := NewNetwork(Config{})
	a := mustJoin(t, n, "a")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.Inbox(); ok {
		t.Fatal("inbox not closed after network close")
	}
	if err := a.Send("a", "t", nil); err == nil {
		t.Fatal("send after close accepted")
	}
	if _, err := n.Join("x"); err == nil {
		t.Fatal("join after close accepted")
	}
	// Double close is a no-op.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWaitsForDelayedDeliveries(t *testing.T) {
	n := NewNetwork(Config{BaseLatency: 10 * time.Millisecond})
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	_ = a
	if err := a.Send("b", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-flight message must have been either delivered before the
	// inbox closed or dropped — never delivered after close. Drain.
	for range b.Inbox() {
	}
}

func TestJitterDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		n := NewNetwork(Config{Jitter: time.Millisecond, Seed: seed, LossRate: 0.5})
		defer n.Close()
		a := mustJoin(t, n, "a")
		mustJoin(t, n, "b")
		for i := 0; i < 50; i++ {
			if err := a.Send("b", "t", nil); err != nil {
				t.Fatal(err)
			}
		}
		s := n.Stats()
		return []int64{s.MessagesDropped}
	}
	d1 := run(7)
	d2 := run(7)
	if d1[0] != d2[0] {
		t.Fatalf("same seed produced different drop counts: %d vs %d", d1[0], d2[0])
	}
}

func TestTCPRoundTrip(t *testing.T) {
	hub, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialTCP(hub.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialTCP(hub.Addr(), "c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Direct send (retry until b's hello registers at the hub).
	deadline := time.Now().Add(2 * time.Second)
	var got Message
	for {
		if err := a.Send("b", "ping", []byte("over tcp")); err != nil {
			t.Fatal(err)
		}
		select {
		case got = <-b.Inbox():
		case <-time.After(50 * time.Millisecond):
		}
		if got.Topic != "" || time.Now().After(deadline) {
			break
		}
	}
	if got.Topic != "ping" || string(got.Payload) != "over tcp" {
		t.Fatalf("tcp direct send failed: %+v", got)
	}

	// Broadcast reaches b and c but not a.
	if err := a.BroadcastMsg("blk", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []*TCPEndpoint{b, c} {
		select {
		case m := <-ep.Inbox():
			if m.Topic != "blk" {
				t.Fatalf("got topic %q", m.Topic)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("node %s missed broadcast", ep.ID())
		}
	}
	select {
	case m := <-a.Inbox():
		t.Fatalf("broadcast echoed to sender: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTCPFrameSizeLimit(t *testing.T) {
	hub, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A frame within limits works; the limit itself is enforced by
	// readFrame, covered via direct call.
	if _, err := readFrame(badReader{}); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

type badReader struct{}

func (badReader) Read(p []byte) (int, error) {
	// Length prefix claiming 1 GB.
	for i := range p {
		p[i] = 0xFF
	}
	return len(p), nil
}

func BenchmarkSimSend(b *testing.B) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, err := n.Join("a")
	if err != nil {
		b.Fatal(err)
	}
	recv, err := n.Join("b")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("b", "t", payload); err != nil {
			b.Fatal(err)
		}
		<-recv.Inbox()
	}
}

func TestOverflowCountedPerEndpoint(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	mustJoin(t, n, "b") // never drained
	mustJoin(t, n, "c") // never drained
	for i := 0; i < inboxSize+3; i++ {
		if err := a.Send("b", "t", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send("c", "t", nil); err != nil {
		t.Fatal(err)
	}
	// b's inbox overflows three times; c's one message fits its own.
	s := n.Stats()
	if s.MessagesOverflowed != 3 {
		t.Fatalf("overflowed = %d, want 3", s.MessagesOverflowed)
	}
	// Overflow stays a subset of total drops.
	if s.MessagesDropped != s.MessagesOverflowed {
		t.Fatalf("dropped %d != overflowed %d with no loss configured",
			s.MessagesDropped, s.MessagesOverflowed)
	}
}

func TestOverflowDistinguishedFromLoss(t *testing.T) {
	n := NewNetwork(Config{LossRate: 1.0, Seed: 1})
	defer n.Close()
	a := mustJoin(t, n, "a")
	mustJoin(t, n, "b")
	for i := 0; i < 4; i++ {
		if err := a.Send("b", "t", nil); err != nil {
			t.Fatal(err)
		}
	}
	s := n.Stats()
	if s.MessagesDropped == 0 {
		t.Fatal("lossy link dropped nothing")
	}
	if s.MessagesOverflowed != 0 {
		t.Fatalf("random loss miscounted as overflow: %d", s.MessagesOverflowed)
	}
}

func TestEndpointCloseDetachesAndIDRejoins(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("inbox not closed after endpoint close")
	}
	if got := n.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d after detach, want 1", got)
	}
	// Broadcasts no longer target the detached node.
	if err := a.BroadcastMsg("t", nil); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.MessagesSent != 0 {
		t.Fatalf("broadcast targeted %d peers after detach, want 0", s.MessagesSent)
	}
	// The ID is free again: rejoin and receive.
	b2 := mustJoin(t, n, "b")
	if err := a.Send("b", "t", []byte("back")); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, b2, time.Second)
	if string(m.Payload) != "back" {
		t.Fatalf("payload %q after rejoin", m.Payload)
	}
}

func TestRuntimeLossAndLatencySetters(t *testing.T) {
	n := NewNetwork(Config{Seed: 3})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")

	n.SetLossRate(1.0) // clamped just under 1, drops essentially everything
	dropped0 := n.Stats().MessagesDropped
	for i := 0; i < 50; i++ {
		if err := a.Send("b", "t", nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := n.Stats().MessagesDropped - dropped0; d < 45 {
		t.Fatalf("only %d/50 dropped at max loss", d)
	}
	n.SetLossRate(0)

	n.SetLatency(20*time.Millisecond, 0)
	start := time.Now()
	if err := a.Send("b", "t", nil); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if e := time.Since(start); e < 15*time.Millisecond {
		t.Fatalf("runtime latency not applied: delivered in %v", e)
	}
	n.SetLatency(0, 0)
}

func TestSlowNodeDelayInjection(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")

	n.SetNodeDelay("b", 20*time.Millisecond)
	start := time.Now()
	if err := a.Send("b", "t", nil); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if e := time.Since(start); e < 15*time.Millisecond {
		t.Fatalf("slow-node delay not applied: %v", e)
	}

	n.SetNodeDelay("b", 0) // cleared
	start = time.Now()
	if err := a.Send("b", "t", nil); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if e := time.Since(start); e > 10*time.Millisecond {
		t.Fatalf("cleared slow-node delay still active: %v", e)
	}
}
