package instance

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// refCSR is the row build CSR.Reset replaces: a counting sort by
// processor, then each row stably sorted by (size desc, id asc).
func refCSR(m int, assign []int32, sizes []int64) (start, jobs []int32) {
	start = make([]int32, m+1)
	for _, p := range assign {
		start[p+1]++
	}
	for p := 0; p < m; p++ {
		start[p+1] += start[p]
	}
	jobs = make([]int32, len(assign))
	next := slices.Clone(start)
	for j, p := range assign {
		jobs[next[p]] = int32(j)
		next[p]++
	}
	for p := 0; p < m; p++ {
		slices.SortStableFunc(jobs[start[p]:start[p+1]], func(a, b int32) int {
			return cmp.Compare(sizes[b], sizes[a])
		})
	}
	return start, jobs
}

// radixPassCount is the number of byte passes Reset runs on sizes.
func radixPassCount(sizes []int64) int {
	var diff uint64
	for _, s := range sizes {
		diff |= uint64(s ^ sizes[0])
	}
	passes := 0
	for ; diff != 0; diff >>= 8 {
		if byte(diff) != 0 {
			passes++
		}
	}
	return passes
}

func checkCSR(t *testing.T, c *CSR, m int, assign []int32, sizes []int64) {
	t.Helper()
	tmp := make([]int32, len(assign))
	c.Reset(m, assign, sizes, tmp)
	start, jobs := refCSR(m, assign, sizes)
	if !slices.Equal(c.Start, start) {
		t.Fatalf("Start = %v, want %v", c.Start, start)
	}
	if !slices.Equal(c.Jobs, jobs) {
		t.Fatalf("Jobs = %v, want %v (sizes %v, assign %v)", c.Jobs, jobs, sizes, assign)
	}
}

func TestCSRResetMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		m      int
		sizes  []int64
		assign []int32
		passes int // -1: not pinned
	}{
		{"empty", 2, nil, nil, 0},
		{"one job", 1, []int64{7}, []int32{0}, 0},
		{"all tied", 3, []int64{5, 5, 5, 5, 5, 5}, []int32{2, 0, 2, 1, 0, 2}, 0},
		{"heavy ties one pass", 2, []int64{3, 1, 3, 2, 1, 3, 2, 3}, []int32{0, 1, 1, 0, 0, 1, 1, 0}, 1},
		{"heavy ties two passes", 3, []int64{300, 2, 300, 2, 256, 300, 2, 256}, []int32{1, 1, 0, 2, 1, 1, 0, 1}, 2},
		{"every byte differs", 2, []int64{1, 255, 256, 1 << 40, math.MaxInt64, 256, 1}, []int32{0, 1, 0, 1, 0, 0, 1}, -1},
		{"m=1", 1, []int64{4, 9, 4, 1, 9}, []int32{0, 0, 0, 0, 0}, 1},
		{"empty rows", 5, []int64{6, 2, 6, 8}, []int32{3, 1, 3, 3}, 1},
		{"three passes", 2, []int64{1 << 16, 1, 1 << 8, 1 << 16, 1}, []int32{1, 0, 1, 1, 0}, 3},
	}
	var c CSR // reused, so stale capacity from a larger case must not leak
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.passes >= 0 && len(tc.sizes) > 0 {
				if got := radixPassCount(tc.sizes); got != tc.passes {
					t.Fatalf("case runs %d passes, want %d", got, tc.passes)
				}
			}
			checkCSR(t, &c, tc.m, tc.assign, tc.sizes)
		})
	}
}

func TestCSRResetZeroAllocs(t *testing.T) {
	const n, m = 500, 7
	sizes := make([]int64, n)
	assign := make([]int32, n)
	for j := range sizes {
		sizes[j] = int64(j*7919%1000 + 1)
		assign[j] = int32(j * 31 % m)
	}
	var c CSR
	tmp := make([]int32, n)
	c.Reset(m, assign, sizes, tmp)
	if allocs := testing.AllocsPerRun(20, func() { c.Reset(m, assign, sizes, tmp) }); allocs != 0 {
		t.Fatalf("warm CSR.Reset allocates %v times per run, want 0", allocs)
	}
}

// FuzzCSRReset checks Reset against the reference on arbitrary rows.
// The first byte of rawSizes picks the size width (1-8 bytes, little
// endian), so narrow widths give heavy ties and wide ones negative and
// every-byte-distinct sizes.
func FuzzCSRReset(f *testing.F) {
	f.Add(uint8(2), []byte{0, 3, 1, 3, 2, 1}, []byte{0, 1, 1, 0, 0})
	f.Add(uint8(4), []byte{1, 44, 1, 2, 0, 44, 1, 0, 1, 2, 0}, []byte{3, 2, 3, 3, 1})
	f.Add(uint8(0), []byte{7, 1, 0, 0, 0, 0, 0, 0, 128, 255, 255, 255, 255, 255, 255, 255, 127}, []byte{0, 0})
	f.Add(uint8(9), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, mRaw uint8, rawSizes, rawAssign []byte) {
		m := int(mRaw%16) + 1
		var sizes []int64
		if len(rawSizes) > 0 {
			w := int(rawSizes[0]%8) + 1
			for b := rawSizes[1:]; len(b) >= w; b = b[w:] {
				var buf [8]byte
				copy(buf[:], b[:w])
				sizes = append(sizes, int64(binary.LittleEndian.Uint64(buf[:])))
			}
		}
		n := min(len(sizes), len(rawAssign))
		assign := make([]int32, n)
		for j := range assign {
			assign[j] = int32(int(rawAssign[j]) % m)
		}
		var c CSR
		checkCSR(t, &c, m, assign, sizes[:n])
	})
}
