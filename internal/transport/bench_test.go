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

// The server's serve loop answers each exchange in both framings with one
// writev and no allocation, with and without a per-exchange deadline. A
// raw-socket client keeps the measurement to the server side (AllocsPerRun
// counts every goroutine's allocations), and each response is checked
// byte for byte so a mis-framed write cannot pass as a cheap one.
func TestServeLoopZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name    string
		mux     bool
		timeout time.Duration
	}{
		{"v1", false, 0},
		{"v2", true, 0},
		{"v1_deadline", false, time.Minute},
		{"v2_deadline", true, time.Minute},
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
			worker := uint32(3)
			if tc.mux {
				worker |= muxWorkerFlag
			}
			req := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			req = binary.LittleEndian.AppendUint32(req, worker)
			want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			want = append(want, statusOK)
			if tc.mux {
				req = binary.LittleEndian.AppendUint64(req, 42)
				want = binary.LittleEndian.AppendUint64(want, 42)
			}
			req = append(req, payload...)
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

// TestClientExchangeZeroAllocs: a steady-state TCPClient round trip against
// an echo server allocates nothing on either end — the client's grow-once
// response buffer and single-writev request, the server's grow-once request
// buffer. AllocsPerRun counts every goroutine, so the serve loop is covered
// too; each echo is checked byte for byte.
func TestClientExchangeZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	payload := bytes.Repeat([]byte{0x5a, 0xc3}, 8<<10)
	exchange := func() {
		resp, err := cli.Exchange(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("echo returned %d bytes that differ from the %d sent", len(resp), len(payload))
		}
	}
	exchange() // grow the buffers once
	if allocs := testing.AllocsPerRun(50, exchange); allocs > 0 {
		t.Fatalf("client exchange: %v allocs per round trip, want 0", allocs)
	}
}

// BenchmarkTCPExchange measures one client round trip against an echo
// server over a real socket. The steady-state path is allocation-free on
// both ends (grow-once buffers, single-writev request);
// TestClientExchangeZeroAllocs asserts it.
func BenchmarkTCPExchange(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", func(worker int, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	payload := make([]byte, 16<<10)
	if _, err := cli.Exchange(0, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Exchange(0, payload); err != nil {
			b.Fatal(err)
		}
	}
}
