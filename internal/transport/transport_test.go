package transport

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"
)

func echoHandler(worker int, payload []byte) ([]byte, error) {
	out := append([]byte{byte(worker)}, payload...)
	return out, nil
}

func TestLoopbackExchange(t *testing.T) {
	l := NewLoopback(echoHandler)
	defer l.Close()
	resp, err := l.Exchange(3, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{3, 'h', 'i'}) {
		t.Fatalf("resp = %v", resp)
	}
	if l.Traffic.Up() != 2 || l.Traffic.Down() != 3 || l.Traffic.Exchanges() != 1 {
		t.Fatalf("traffic wrong: up=%d down=%d n=%d", l.Traffic.Up(), l.Traffic.Down(), l.Traffic.Exchanges())
	}
}

// As a Pipeliner, a loopback runs each handler at Submit and hands the
// results out at Await in submit order.
func TestLoopbackPipelinesInOrder(t *testing.T) {
	l := NewLoopback(func(worker int, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("w%d:%s", worker, payload)), nil
	})
	for i := 0; i < 3; i++ {
		if err := l.Submit(7, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.InFlight() != 3 {
		t.Fatalf("in flight %d, want 3", l.InFlight())
	}
	for i := 0; i < 3; i++ {
		resp, err := l.Await()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("w7:r%d", i); string(resp) != want {
			t.Fatalf("await %d = %q, want %q (responses must resolve in submit order)", i, resp, want)
		}
	}
	if _, err := l.Await(); !errors.Is(err, errWindowEmpty) {
		t.Fatalf("await on a drained loopback: %v", err)
	}
	if l.Traffic.Exchanges() != 3 {
		t.Fatalf("traffic counted %d exchanges, want 3", l.Traffic.Exchanges())
	}
}

// exchange is one synchronous round trip on a mux link, checking that the
// response id pairs up with the request.
func exchange(l MuxLink, worker int, payload []byte) ([]byte, error) {
	id, err := l.Submit(worker, payload)
	if err != nil {
		return nil, err
	}
	got, resp, err := l.Recv(nil)
	if err == nil && got != id {
		return nil, fmt.Errorf("response id %d, want %d", got, id)
	}
	return resp, err
}

func TestLoopbackPropagatesError(t *testing.T) {
	want := errors.New("boom")
	l := NewLoopback(func(int, []byte) ([]byte, error) { return nil, want })
	if _, err := l.Exchange(0, nil); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if l.Traffic.Exchanges() != 0 {
		t.Fatal("failed exchange must not be counted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := exchange(cli, 7, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, append([]byte{7}, []byte("payload")...)) {
		t.Fatalf("resp = %q", resp)
	}
	if cli.Traffic.Up() != 7 || cli.Traffic.Down() != 8 {
		t.Fatalf("client traffic up=%d down=%d", cli.Traffic.Up(), cli.Traffic.Down())
	}
}

func TestTCPEmptyPayload(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := exchange(cli, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{1}) {
		t.Fatalf("resp = %v", resp)
	}
}

func TestTCPLargePayload(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := exchange(cli, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big)+1 || !bytes.Equal(resp[1:], big) {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPManyClientsConcurrently(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		mu.Lock()
		seen[worker]++
		mu.Unlock()
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cli, err := DialMux(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for r := 0; r < rounds; r++ {
				msg := []byte(fmt.Sprintf("w%d-r%d", k, r))
				resp, err := exchange(cli, k, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("worker %d round %d: corrupted echo", k, r)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The handlers wrote seen under mu; a response arriving over the socket
	// orders nothing for the race detector, so read it under mu too.
	mu.Lock()
	served := maps.Clone(seen)
	mu.Unlock()
	for k := 0; k < workers; k++ {
		if served[k] != rounds {
			t.Fatalf("worker %d served %d rounds, want %d", k, served[k], rounds)
		}
	}
	waitServerExchanges(t, srv, workers*rounds)
}

// waitServerExchanges waits until the server has counted want successful
// exchanges. It counts one after writing the response, so a client that
// already holds the response can be ahead of the counter; the count must
// still arrive, and must not overshoot.
func waitServerExchanges(t *testing.T, srv *TCPServer, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Traffic.Exchanges() < want {
		if time.Now().After(deadline) {
			t.Fatalf("server counted %d exchanges, want %d", srv.Traffic.Exchanges(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := srv.Traffic.Exchanges(); got != want {
		t.Fatalf("server counted %d exchanges, want %d", got, want)
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := exchange(cli, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := exchange(cli, 0, []byte("y")); err == nil {
		t.Fatal("exchange after server close must fail")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := DialMux("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a dead port must fail")
	}
}

func TestTrafficConcurrent(t *testing.T) {
	var tr Traffic
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(3, 5)
			}
		}()
	}
	wg.Wait()
	if tr.Up() != 4800 || tr.Down() != 8000 || tr.Exchanges() != 1600 {
		t.Fatalf("traffic totals wrong: %d %d %d", tr.Up(), tr.Down(), tr.Exchanges())
	}
}
