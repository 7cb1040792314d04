package transport

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

// A peer that advertises one identity's key but signs with another's private
// key must fail proof of possession.
func TestHandshakeRejectsWrongPeerKey(t *testing.T) {
	n := NewMemNetwork()
	honest := mkIdentity(t, "honest", 30)
	claimed := mkIdentity(t, "claimed", 31) // key the attacker advertises
	attacker := mkIdentity(t, "attacker", 32)

	a, b := newMemPair(n)
	errCh := make(chan error, 1)
	go func() {
		_, err := handshake(a, honest, sideServer)
		errCh <- err
	}()

	// Attacker side, by hand: send hello claiming `claimed`'s key, then sign
	// the transcript with `attacker`'s key.
	nonce := make([]byte, nonceLen)
	hello, _ := json.Marshal(helloMsg{Name: "claimed", Key: claimed.Entity().Key, Nonce: nonce})
	if err := b.sendFrame(hello); err != nil {
		t.Fatal(err)
	}
	peerRaw, err := b.recvFrame()
	if err != nil {
		t.Fatal(err)
	}
	var peerHello helloMsg
	if err := json.Unmarshal(peerRaw, &peerHello); err != nil {
		t.Fatal(err)
	}
	sig := attacker.SignBytes(transcript(sideClient, nonce, peerHello.Nonce))
	auth, _ := json.Marshal(authMsg{Sig: sig})
	if err := b.sendFrame(auth); err != nil {
		t.Fatal(err)
	}
	// Drain the server's auth frame so its send cannot block.
	go func() { _, _ = b.recvFrame() }()

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandshake) {
			t.Fatalf("handshake error = %v, want ErrHandshake", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handshake did not reject wrong peer key")
	}
}

// A hello with a short key or nonce is rejected as malformed.
func TestHandshakeRejectsMalformedHello(t *testing.T) {
	n := NewMemNetwork()
	honest := mkIdentity(t, "honest", 33)
	a, b := newMemPair(n)
	errCh := make(chan error, 1)
	go func() {
		_, err := handshake(a, honest, sideServer)
		errCh <- err
	}()
	hello, _ := json.Marshal(helloMsg{Name: "x", Key: []byte{1, 2, 3}, Nonce: make([]byte, nonceLen)})
	if err := b.sendFrame(hello); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandshake) {
			t.Fatalf("handshake error = %v, want ErrHandshake", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handshake did not reject malformed hello")
	}
	if len(make([]byte, ed25519.PublicKeySize)) == 0 { // keep the import honest
		t.Fatal("unreachable")
	}
}

// A truncated handshake frame — length prefix promising more bytes than ever
// arrive — must fail the accept, not wedge it.
func TestHandshakeTruncatedFrame(t *testing.T) {
	srv := mkIdentity(t, "server", 34)
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
	// Promise 100 bytes, deliver 3, hang up.
	if _, err := raw.Write([]byte{0, 0, 0, 100, 'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("truncated handshake frame accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept wedged on truncated handshake frame")
	}
}

// Dialing an address whose listener has closed fails promptly.
func TestDialClosedListener(t *testing.T) {
	srv := mkIdentity(t, "server", 35)
	cli := mkIdentity(t, "client", 36)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	d := &TCPDialer{Identity: cli}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := d.Dial(ctx, addr); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}

	// Same for the in-memory network.
	n := NewMemNetwork()
	mln, err := n.Listen("gone", srv)
	if err != nil {
		t.Fatal(err)
	}
	_ = mln.Close()
	if _, err := n.Dialer(cli).Dial(context.Background(), "gone"); err == nil {
		t.Fatal("mem dial to closed listener succeeded")
	}
}

// A canceled context aborts a dial whose handshake never completes: the
// listener accepts the TCP connection via net.Listener but nobody runs the
// server side of the handshake, so the client blocks until ctx fires.
func TestDialContextCancelDuringHandshake(t *testing.T) {
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rawLn.Close()
	go func() {
		conn, err := rawLn.Accept()
		if err == nil {
			// Hold the conn open without speaking: the client's handshake
			// blocks on recvFrame until its context cancels.
			defer conn.Close()
			time.Sleep(3 * time.Second)
		}
	}()
	cli := mkIdentity(t, "client", 37)
	d := &TCPDialer{Identity: cli}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = d.Dial(ctx, rawLn.Addr().String())
	if err == nil {
		t.Fatal("dial succeeded against a mute server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v, should abort promptly on ctx", elapsed)
	}
}

// A context that is already canceled fails the mem dial without connecting.
func TestMemDialPreCanceledContext(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 38)
	cli := mkIdentity(t, "client", 39)
	ln, err := n.Listen("w", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go func() { _, _ = ln.Accept() }()
	if _, err := n.Dialer(cli).Dial(ctx, "w"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial error = %v, want context.Canceled", err)
	}
}

func TestFaultDialerRefuseAndHeal(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 40)
	cli := mkIdentity(t, "client", 41)
	ln, err := n.Listen("w", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()

	plan := NewFaults()
	d := &FaultDialer{Inner: n.Dialer(cli), Plan: plan}

	plan.Set("w", Fault{RefuseDial: true})
	if _, err := d.Dial(context.Background(), "w"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial error = %v, want ErrInjected", err)
	}
	plan.Clear("w")
	conn, err := d.Dial(context.Background(), "w")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	conn.Close()
}

func TestFaultDialerDialDelayHonorsContext(t *testing.T) {
	n := NewMemNetwork()
	cli := mkIdentity(t, "client", 42)
	plan := NewFaults()
	plan.Set("slow", Fault{DialDelay: 5 * time.Second})
	d := &FaultDialer{Inner: n.Dialer(cli), Plan: plan}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := d.Dial(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delayed dial did not abort on ctx")
	}
}

func TestFaultConnFailAfterFrames(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 43)
	cli := mkIdentity(t, "client", 44)
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
	plan := NewFaults()
	plan.Set("w", Fault{FailAfterFrames: 2})
	d := &FaultDialer{Inner: n.Dialer(cli), Plan: plan}
	conn, err := d.Dial(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	server := <-connCh
	defer server.Close()

	if err := conn.Send([]byte("one")); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if err := conn.Send([]byte("two")); err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if err := conn.Send([]byte("three")); !errors.Is(err, ErrInjected) {
		t.Fatalf("frame 3 error = %v, want ErrInjected", err)
	}
	// The break closes the underlying conn: the peer notices.
	if _, err := server.Recv(); err == nil {
		// first two frames may still be buffered; drain them
		_, _ = server.Recv()
		if _, err := server.Recv(); err == nil {
			t.Fatal("peer did not observe broken connection")
		}
	}
}

func TestFaultConnDropSends(t *testing.T) {
	n := NewMemNetwork()
	srv := mkIdentity(t, "server", 45)
	cli := mkIdentity(t, "client", 46)
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
	plan := NewFaults()
	d := &FaultDialer{Inner: n.Dialer(cli), Plan: plan}
	conn, err := d.Dial(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-connCh
	defer server.Close()

	plan.Set("w", Fault{DropSends: true})
	if err := conn.Send([]byte("lost")); err != nil {
		t.Fatalf("dropped send should report success, got %v", err)
	}
	plan.Clear("w")
	if err := conn.Send([]byte("delivered")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "delivered" {
		t.Fatalf("peer received %q; the dropped frame leaked through", got)
	}
}

// Accept's contract: a connection that dies in its handshake — here the
// peer hangs up before sending its hello, an I/O failure rather than a bad
// message — is reported as ErrHandshake and the listener keeps accepting.
// On the mem transport the cause is ErrClosed (the peer's end of the pipe),
// which is why ErrClosed alone never means "the listener closed".
func TestAcceptSurvivesPeerHangingUpMidHandshake(t *testing.T) {
	srv := mkIdentity(t, "server", 60)
	cli := mkIdentity(t, "client", 61)
	n := NewMemNetwork()
	memLn, err := n.Listen("w", srv)
	if err != nil {
		t.Fatal(err)
	}
	tcpLn, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ln     Listener
		dialer Dialer
		hangUp func(t *testing.T)
	}{
		{"mem", memLn, n.Dialer(cli), func(t *testing.T) {
			_, serverEnd := newMemPair(n)
			memLn.(*memListener).pending <- serverEnd
			_ = serverEnd.close() // both ends share one done channel
		}},
		{"tcp", tcpLn, &TCPDialer{Identity: cli}, func(t *testing.T) {
			raw, err := net.Dial("tcp", tcpLn.Addr())
			if err != nil {
				t.Fatal(err)
			}
			_ = raw.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.ln.Close()
			accepted := make(chan error, 2)
			go func() {
				for i := 0; i < 2; i++ {
					conn, err := tc.ln.Accept()
					if conn != nil {
						defer conn.Close()
					}
					accepted <- err
				}
			}()
			tc.hangUp(t)
			if err := <-accepted; !errors.Is(err, ErrHandshake) {
				t.Fatalf("accept error = %v, want ErrHandshake", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			conn, err := tc.dialer.Dial(ctx, tc.ln.Addr())
			if err != nil {
				t.Fatalf("dial after a failed handshake: %v", err)
			}
			defer conn.Close()
			if err := <-accepted; err != nil {
				t.Fatalf("accept after a failed handshake: %v", err)
			}
		})
	}
}
