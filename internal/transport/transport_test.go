package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

func mkIdentity(t *testing.T, name string, seedByte byte) *core.Identity {
	t.Helper()
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = seedByte
	}
	id, err := core.IdentityFromSeed(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// exchange runs a round trip over a freshly connected pair.
func exchange(t *testing.T, ln Listener, d Dialer, wantServer, wantClient core.EntityID) {
	t.Helper()
	type acceptResult struct {
		conn Conn
		err  error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		conn, err := ln.Accept()
		acceptCh <- acceptResult{conn, err}
	}()

	client, err := d.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	ar := <-acceptCh
	if ar.err != nil {
		t.Fatalf("accept: %v", ar.err)
	}
	server := ar.conn
	defer server.Close()

	if got := client.Peer().ID(); got != wantServer {
		t.Fatalf("client sees peer %s, want %s", got.Short(), wantServer.Short())
	}
	if got := server.Peer().ID(); got != wantClient {
		t.Fatalf("server sees peer %s, want %s", got.Short(), wantClient.Short())
	}

	msg := []byte("hello over drbac transport")
	if err := client.Send(msg); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recv = %q", got)
	}
	// And the reverse direction.
	if err := server.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	back, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "reply" {
		t.Fatalf("reply = %q", back)
	}
}

func TestMemHandshakeAndExchange(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 1)
	cli := mkIdentity(t, "client", 2)
	ln, err := n.Listen("wallet.test", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	exchange(t, ln, n.Dialer(cli), srv.ID(), cli.ID())
	st := n.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
	n.ResetStats()
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestTCPHandshakeAndExchange(t *testing.T) {
	srv := mkIdentity(t, "server", 3)
	cli := mkIdentity(t, "client", 4)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	exchange(t, ln, &TCPDialer{Identity: cli}, srv.ID(), cli.ID())
}

func TestMemDialUnknownAddress(t *testing.T) {
	n := NewMemNetwork()
	cli := mkIdentity(t, "client", 5)
	if _, err := n.Dialer(cli).Dial(context.Background(), "nowhere"); err == nil {
		t.Fatal("dial to unknown address should fail")
	}
}

func TestMemAddressInUse(t *testing.T) {
	n := NewMemNetwork()
	id := mkIdentity(t, "x", 6)
	ln, err := n.Listen("dup", id)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := n.Listen("dup", id); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMemNetwork()
	id := mkIdentity(t, "x", 7)
	ln, err := n.Listen("closing", id)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept error = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	// Address is released.
	ln2, err := n.Listen("closing", id)
	if err != nil {
		t.Fatalf("relisten after close: %v", err)
	}
	ln2.Close()
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 8)
	cli := mkIdentity(t, "client", 9)
	ln, err := n.Listen("w", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := n.Dialer(cli).Dial(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	server := <-connCh
	errCh := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	client.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv error = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock when peer closed")
	}
}

func TestRecvDrainsBufferedFramesAfterClose(t *testing.T) {
	n := NewMemNetwork()
	a, b := newMemPair(n)
	if err := a.sendFrame([]byte("one")); err != nil {
		t.Fatal(err)
	}
	_ = a.close()
	got, err := b.recvFrame()
	if err != nil || string(got) != "one" {
		t.Fatalf("recv after close = %q, %v", got, err)
	}
	if _, err := b.recvFrame(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second recv = %v, want ErrClosed", err)
	}
}

// A frame the receiver has read is already in Stats: the network counts a
// frame before handing it over, so a snapshot taken after acting on one
// includes it. A send that the close turns back is not counted.
func TestMemStatsCountFramesBeforeHandoff(t *testing.T) {
	n := NewMemNetwork()
	a, b := newMemPair(n)
	const frames = 2000
	go func() {
		for range frames {
			if a.sendFrame([]byte("x")) != nil {
				return
			}
		}
	}()
	for i := int64(1); i <= frames; i++ {
		if _, err := b.recvFrame(); err != nil {
			t.Fatal(err)
		}
		if got := n.Stats().Messages; got < i {
			t.Fatalf("frame %d read while Stats counts %d", i, got)
		}
	}

	n.ResetStats()
	a, _ = newMemPair(n)
	for len(a.out) < cap(a.out) {
		if err := a.sendFrame([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.sendFrame([]byte("x")) }()
	_ = a.close()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("send into a full, closed pipe = %v, want ErrClosed", err)
	}
	if got := n.Stats().Messages; got != int64(cap(a.out)) {
		t.Fatalf("Stats counts %d frames, want the %d delivered", got, cap(a.out))
	}
}

func TestFrameSizeLimit(t *testing.T) {
	n := NewMemNetwork()
	a, _ := newMemPair(n)
	huge := make([]byte, MaxFrame+1)
	if err := a.sendFrame(huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestConcurrentSends(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 10)
	cli := mkIdentity(t, "client", 11)
	ln, err := n.Listen("conc", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := n.Dialer(cli).Dial(context.Background(), "conc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-connCh
	defer server.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if err := client.Send([]byte("m")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for received < workers*perWorker {
			if _, err := server.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			received++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d", received, workers*perWorker)
	}
}

func TestHandshakeRejectsWrongTranscript(t *testing.T) {
	// A malicious peer that echoes a stale signature must be rejected:
	// simulate by running both sides with the same side label.
	n := NewMemNetwork()
	a, b := newMemPair(n)
	idA := mkIdentity(t, "a", 12)
	idB := mkIdentity(t, "b", 13)

	errCh := make(chan error, 1)
	go func() {
		_, err := handshake(a, idA, sideClient)
		errCh <- err
	}()
	// Wrong: B also claims to be the client side.
	_, errB := handshake(b, idB, sideClient)
	errA := <-errCh
	if errA == nil && errB == nil {
		t.Fatal("mirror handshake should fail on at least one side")
	}
}

func TestMemLatencyApplied(t *testing.T) {
	n := NewMemNetwork()
	n.Latency = 5 * time.Millisecond
	a, b := newMemPair(n)
	start := time.Now()
	if err := a.sendFrame([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.recvFrame(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

// A dialer that speaks garbage instead of the handshake must be rejected
// without wedging the listener.
func TestHandshakeRejectsGarbageHello(t *testing.T) {
	srv := mkIdentity(t, "server", 20)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()

	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A framed non-JSON hello.
	frame := []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("garbage handshake accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept wedged on garbage handshake")
	}
}

// An oversized claimed frame length is rejected before allocation.
func TestReadFrameRejectsOversizedClaim(t *testing.T) {
	srv := mkIdentity(t, "server", 21)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Claim a 1 GiB frame.
	if _, err := raw.Write([]byte{0x40, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("oversized frame accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept wedged on oversized frame")
	}
}

// TCP framing end to end: header and payload leave in one writev and are
// read back through one buffered reader per connection, so frames that
// arrive glued together (a pipelining peer), frames around the reader's and
// the pool's size boundaries, empty frames and jumbo frames must all come
// out whole and in order — right after a handshake that read through the
// same buffer.
func TestTCPFramingPipelinedAndJumbo(t *testing.T) {
	srv := mkIdentity(t, "server", 70)
	cli := mkIdentity(t, "client", 71)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			connCh <- c
		}
	}()
	client, err := (&TCPDialer{Identity: cli}).Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-connCh
	defer server.Close()

	sizes := []int{0, 1, 5, 255, 256, 257, 4091, 4092, 4093, 4096, 5000,
		bufpool.MaxRetain - 4, bufpool.MaxRetain, bufpool.MaxRetain + 1, 1 << 20, 3, 0, 2}
	frame := func(i, n int) []byte {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	sendErr := make(chan error, 1)
	go func() {
		for i, n := range sizes {
			if err := client.Send(frame(i, n)); err != nil {
				sendErr <- fmt.Errorf("send %d (%d bytes): %w", i, n, err)
				return
			}
		}
		sendErr <- nil
	}()
	for i, n := range sizes {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d (%d bytes): %v", i, n, err)
		}
		if !bytes.Equal(got, frame(i, n)) {
			t.Fatalf("frame %d: got %d bytes, want %d, or contents differ", i, len(got), n)
		}
		bufpool.Put(got)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := client.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("frame one byte over MaxFrame accepted on TCP")
	}
}
