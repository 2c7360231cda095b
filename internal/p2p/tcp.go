package p2p

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single TCP frame to protect against corrupt length
// prefixes.
const maxFrame = 64 << 20

// TCPNetwork is a real-socket implementation of the same messaging
// model: a hub process accepts one connection per node and routes
// frames between them. It exists to demonstrate the protocol stack over
// actual TCP (integration tests); experiments use the simulated
// Network for reproducibility.
type TCPNetwork struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  map[NodeID]net.Conn
	closed bool
	wg     sync.WaitGroup
}

// NewTCPNetwork starts a hub listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewTCPNetwork(addr string) (*TCPNetwork, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	h := &TCPNetwork{ln: ln, conns: make(map[NodeID]net.Conn)}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address.
func (h *TCPNetwork) Addr() string { return h.ln.Addr().String() }

func (h *TCPNetwork) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

func (h *TCPNetwork) serveConn(conn net.Conn) {
	defer h.wg.Done()
	r := bufio.NewReader(conn)
	// First frame is the hello: a Message whose From names the node.
	hello, err := readFrame(r)
	if err != nil {
		conn.Close()
		return
	}
	id := hello.From
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.conns[id] = conn
	h.mu.Unlock()

	defer func() {
		h.mu.Lock()
		if h.conns[id] == conn {
			delete(h.conns, id)
		}
		h.mu.Unlock()
		conn.Close()
	}()

	for {
		msg, err := readFrame(r)
		if err != nil {
			return
		}
		h.route(msg)
	}
}

func (h *TCPNetwork) route(msg Message) {
	h.mu.Lock()
	var targets []net.Conn
	if msg.To == Broadcast {
		for id, c := range h.conns {
			if id == msg.From {
				continue
			}
			targets = append(targets, c)
		}
	} else if c, ok := h.conns[msg.To]; ok {
		targets = append(targets, c)
	}
	h.mu.Unlock()
	for _, c := range targets {
		// Best-effort: a failed peer write drops the message, matching
		// the datagram model of the simulated network.
		_ = writeFrame(c, msg)
	}
}

// Close shuts down the hub and all connections.
func (h *TCPNetwork) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	h.wg.Wait()
	return err
}

// TCPEndpoint is a node's connection to a TCPNetwork hub.
type TCPEndpoint struct {
	id     NodeID
	conn   net.Conn
	inbox  chan Message
	mu     sync.Mutex
	wmu    sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// DialTCP connects a node to a hub.
func DialTCP(addr string, id NodeID) (*TCPEndpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: dial: %w", err)
	}
	ep := &TCPEndpoint{id: id, conn: conn, inbox: make(chan Message, inboxSize)}
	if err := writeFrame(conn, Message{From: id, Topic: "hello"}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("p2p: hello: %w", err)
	}
	ep.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

func (e *TCPEndpoint) readLoop() {
	defer e.wg.Done()
	r := bufio.NewReader(e.conn)
	for {
		msg, err := readFrame(r)
		if err != nil {
			e.closeInbox()
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		select {
		case e.inbox <- msg:
		default: // overflow: drop, like the datagram model
		}
		e.mu.Unlock()
	}
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() NodeID { return e.id }

// Send implements Endpoint.
func (e *TCPEndpoint) Send(to NodeID, topic string, payload []byte) error {
	if to == Broadcast {
		return errors.New("p2p: Send requires a concrete peer; use BroadcastMsg")
	}
	return e.write(Message{From: e.id, To: to, Topic: topic, Payload: payload})
}

// BroadcastMsg implements Endpoint.
func (e *TCPEndpoint) BroadcastMsg(topic string, payload []byte) error {
	return e.write(Message{From: e.id, To: Broadcast, Topic: topic, Payload: payload})
}

func (e *TCPEndpoint) write(msg Message) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return writeFrame(e.conn, msg)
}

// Inbox implements Endpoint.
func (e *TCPEndpoint) Inbox() <-chan Message { return e.inbox }

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	err := e.conn.Close()
	e.wg.Wait()
	e.closeInbox()
	return err
}

func (e *TCPEndpoint) closeInbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.inbox)
}

// writeFrame writes a length-prefixed JSON message.
func writeFrame(w io.Writer, msg Message) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("p2p: marshal frame: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("p2p: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("p2p: write frame body: %w", err)
	}
	return nil
}

// readFrame reads a length-prefixed JSON message.
func readFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Message{}, fmt.Errorf("p2p: frame of %d bytes exceeds limit", n)
	}
	// The body grows as its bytes arrive: a header alone cannot make the
	// reader allocate the frame limit.
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return Message{}, err
	}
	if len(body) < int(n) {
		return Message{}, io.ErrUnexpectedEOF
	}
	var msg Message
	if err := json.Unmarshal(body, &msg); err != nil {
		return Message{}, fmt.Errorf("p2p: unmarshal frame: %w", err)
	}
	return msg, nil
}
