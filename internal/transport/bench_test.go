package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"dgs/internal/raceflag"
)

// The server's serve loop answers each exchange with one writev and no
// allocation, with and without a per-exchange deadline. A raw-socket client
// keeps the measurement to the server side (AllocsPerRun counts every
// goroutine's allocations), and each response is checked byte for byte so a
// mis-framed write cannot pass as a cheap one.
func TestServeLoopZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"v2", 0},
		{"v2_deadline", time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
				return payload, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.SetExchangeTimeout(tc.timeout)
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			payload := bytes.Repeat([]byte{0xa5}, 4<<10)
			req := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			req = binary.LittleEndian.AppendUint32(req, 3|muxWorkerFlag)
			req = binary.LittleEndian.AppendUint64(req, 42)
			req = append(req, payload...)
			want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			want = append(want, statusOK)
			want = binary.LittleEndian.AppendUint64(want, 42)
			want = append(want, payload...)
			got := make([]byte, len(want))

			exchange := func() {
				if _, err := conn.Write(req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, got); err != nil {
					t.Fatal(err)
				}
			}
			exchange()
			if !bytes.Equal(got, want) {
				t.Fatalf("response frame % x..., want % x...", got[:16], want[:16])
			}
			if allocs := testing.AllocsPerRun(50, exchange); allocs > 0 {
				t.Fatalf("serve loop: %v allocs per exchange, want 0", allocs)
			}
		})
	}
}

// sessionEchoServer answers each session frame with an OK envelope around
// its payload, built in one reused buffer: the server half of an
// allocation-free session exchange (ExactlyOnce allocates every response,
// which its replay cache keeps). Give each client its own server: the
// buffer is safe on one connection only, whose serve loop writes each
// response before it reads the next frame.
func sessionEchoServer(t testing.TB) string {
	t.Helper()
	var out []byte
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		_, _, _, app, err := decodeSessionReq(payload)
		if err != nil {
			return nil, err
		}
		if need := respHeaderLen + len(app); cap(out) < need {
			out = make([]byte, need)
		}
		out = out[:respHeaderLen+len(app)]
		putSessionResp(out, statusOK, 1, 7)
		copy(out[respHeaderLen:], app)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestClientExchangeZeroAllocs: a steady-state PipelinedSession exchange
// over MuxConn allocates nothing on either end — the slots' grow-once
// envelope and response buffers, the single-writev request, the server's
// grow-once request buffer — synchronously at depth 1 and with a frame
// always in flight at depth 2. AllocsPerRun counts every goroutine, so the
// serve loop is covered too; each echo is checked byte for byte.
func TestClientExchangeZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	payloads := [2][]byte{
		bytes.Repeat([]byte{0x5a, 0xc3}, 8<<10),
		bytes.Repeat([]byte{0x3c, 0xa5}, 8<<10),
	}
	check := func(t *testing.T, resp []byte, err error, want []byte) {
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatalf("echo returned %d bytes that differ from the %d sent", len(resp), len(want))
		}
	}
	t.Run("depth1", func(t *testing.T) {
		p := dialSession(t, sessionEchoServer(t), 1)
		k := 0
		exchange := func() {
			resp, err := p.Exchange(0, payloads[k%2])
			check(t, resp, err, payloads[k%2])
			k++
		}
		exchange() // grow the buffers once
		exchange()
		if allocs := testing.AllocsPerRun(50, exchange); allocs > 0 {
			t.Fatalf("depth-1 exchange: %v allocs per round trip, want 0", allocs)
		}
	})
	t.Run("depth2", func(t *testing.T) {
		p := dialSession(t, sessionEchoServer(t), 2)
		if err := p.Submit(0, payloads[0]); err != nil {
			t.Fatal(err)
		}
		k := 1
		step := func() {
			if err := p.Submit(0, payloads[k%2]); err != nil {
				t.Fatal(err)
			}
			resp, err := p.Await()
			check(t, resp, err, payloads[(k-1)%2])
			k++
		}
		step() // grow every slot's buffers once
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
			t.Fatalf("depth-2 submit/await: %v allocs per step, want 0", allocs)
		}
	})
}

// BenchmarkSessionExchange measures one depth-1 session round trip against
// an echo server over a real socket. The steady-state path is
// allocation-free on both ends; TestClientExchangeZeroAllocs asserts it.
func BenchmarkSessionExchange(b *testing.B) {
	addr := sessionEchoServer(b)
	p := NewPipelinedSession(func() (MuxLink, error) { return DialMux(addr) }, 1)
	defer p.Close()
	payload := make([]byte, 16<<10)
	if _, err := p.Exchange(0, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exchange(0, payload); err != nil {
			b.Fatal(err)
		}
	}
}
