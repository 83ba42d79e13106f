package sparse

import "testing"

func TestNumBlocks(t *testing.T) {
	cases := []struct {
		n     int
		shift uint
		want  int
	}{
		{0, 10, 0},
		{1, 10, 1},
		{1024, 10, 1},
		{1025, 10, 2},
		{4096, 10, 4},
		{4097, 10, 5},
		{7, 2, 2},
		{-3, 10, 0},
	}
	for _, c := range cases {
		if got := NumBlocks(c.n, c.shift); got != c.want {
			t.Errorf("NumBlocks(%d, %d) = %d, want %d", c.n, c.shift, got, c.want)
		}
	}
}

func TestBlockSpan(t *testing.T) {
	// Layer of 10 elements, 4-element blocks: [0,4) [4,8) [8,10).
	spans := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	for b, want := range spans {
		lo, hi := BlockSpan(b, 2, 10)
		if lo != want[0] || hi != want[1] {
			t.Errorf("BlockSpan(%d) = [%d,%d), want [%d,%d)", b, lo, hi, want[0], want[1])
		}
	}
}

func TestAutoBlockShift(t *testing.T) {
	embed := []int{1 << 19, 1 << 19, 1 << 19, 1 << 19}
	// The benchmark's 330k-parameter MLP (64-512-512-64) and ResNetS.
	mlp := []int{32768, 512, 262144, 512, 32768, 64}
	resnet := []int{216, 8, 8, 8, 576, 8, 8, 8, 576, 8, 8, 8, 1152, 16, 16, 16, 2304, 16, 16, 16,
		128, 16, 16, 16, 4608, 32, 32, 32, 9216, 32, 32, 32, 512, 32, 32, 32, 320, 10}
	cases := []struct {
		name      string
		sizes     []int
		secondary bool
		want      uint
	}{
		{"empty", nil, false, PlainBlockShift},
		{"empty_secondary", nil, true, DefaultBlockShift},
		// Embedding-style: a plain gather tracks single 64-element rows; the
		// secondary gather keeps the coarse 1024-element blocks.
		{"embedding", embed, false, PlainBlockShift},
		{"embedding_secondary", embed, true, DefaultBlockShift},
		{"one_big", []int{1 << 16}, false, PlainBlockShift},
		{"one_big_secondary", []int{1 << 16}, true, DefaultBlockShift},
		// MLP: median 16640 supports 64 blocks at shift 8 but not 9.
		{"mlp", mlp, false, PlainBlockShift},
		{"mlp_secondary", mlp, true, 8},
		// Median of 16 elements: floored at shift 2 either way.
		{"resnet", resnet, false, 2},
		{"resnet_secondary", resnet, true, 2},
		// CIFAR-CNN geometry: median ~496 elements — a coarse block would
		// collapse most layers into one; auto picks fine blocks.
		{"cnn", []int{864, 32, 9216, 32, 18432, 64, 65536, 128, 1280, 10}, true, 2},
		// All tiny: floored at shift 2, never finer.
		{"tiny", []int{8, 8, 8}, false, 2},
		// Median of 4096 supports 64 blocks at shift 6 but not shift 7.
		{"mid", []int{4096, 4096, 4096}, true, 6},
		// Below the plain cap the two paths agree.
		{"small", []int{2048, 2048, 2048}, false, 5},
		{"small_secondary", []int{2048, 2048, 2048}, true, 5},
	}
	for _, tc := range cases {
		if got := AutoBlockShift(tc.sizes, tc.secondary); got != tc.want {
			t.Errorf("%s: AutoBlockShift(%v, %v) = %d, want %d", tc.name, tc.sizes, tc.secondary, got, tc.want)
		}
	}
	// The result is a pure function of the sizes (restart determinism) and
	// must not mutate its argument.
	sizes := []int{100, 5, 90000}
	before := append([]int(nil), sizes...)
	a, b := AutoBlockShift(sizes, true), AutoBlockShift(sizes, true)
	if a != b {
		t.Fatalf("non-deterministic: %d then %d", a, b)
	}
	for i := range sizes {
		if sizes[i] != before[i] {
			t.Fatal("AutoBlockShift mutated its input")
		}
	}
}

func TestMarkBlocks(t *testing.T) {
	ver := make([]uint64, NumBlocks(40, 3)) // 5 blocks of 8
	MarkBlocks(ver, []int32{0, 1, 7, 8, 25, 39}, 7, 3)
	want := []uint64{7, 7, 0, 7, 7}
	for b := range ver {
		if ver[b] != want[b] {
			t.Errorf("ver[%d] = %d, want %d", b, ver[b], want[b])
		}
	}
	// A later stamp overwrites only the blocks it touches.
	MarkBlocks(ver, []int32{16}, 9, 3)
	if ver[2] != 9 || ver[0] != 7 {
		t.Errorf("restamp: ver = %v", ver)
	}
}
