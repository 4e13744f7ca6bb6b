package obs

import (
	"fmt"
	"strings"
	"testing"
)

// TestHistogramRetainedFidelity: once the reservoir downsamples, the
// snapshot must expose both the true observation count and the retained
// sample count instead of conflating them, and WriteSummary must flag
// the quantiles as estimates.
func TestHistogramRetainedFidelity(t *testing.T) {
	s := New()
	h := s.Reg.Histogram("x.lat")
	const total = histogramLimit + 5000
	for i := int64(0); i < total; i++ {
		h.Observe(i)
	}
	snap := s.Snapshot()
	hs := snap.Histograms["x.lat"]
	if hs.Count != total {
		t.Errorf("Count = %d, want %d", hs.Count, total)
	}
	if hs.Retained != histogramLimit {
		t.Errorf("Retained = %d, want %d", hs.Retained, histogramLimit)
	}
	if !hs.Downsampled() {
		t.Error("Downsampled() = false after reservoir overflow")
	}
	var b strings.Builder
	if err := snap.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("quantiles over %d/%d retained", histogramLimit, total); !strings.Contains(b.String(), want) {
		t.Errorf("summary does not flag downsampled quantiles:\n%s", b.String())
	}
	// Exposition _count must be the true count, never the retained count.
	var p strings.Builder
	if err := snap.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("x_lat_count %d", total); !strings.Contains(p.String(), want) {
		t.Errorf("exposition _count is not the true observation count:\n%s", p.String())
	}
}

// TestHistogramNotDownsampled: below the limit Retained tracks Count
// exactly and the summary carries no estimate marker.
func TestHistogramNotDownsampled(t *testing.T) {
	s := New()
	h := s.Reg.Histogram("y.lat")
	for i := int64(0); i < 100; i++ {
		h.Observe(i)
	}
	hs := s.Snapshot().Histograms["y.lat"]
	if hs.Retained != hs.Count || hs.Downsampled() {
		t.Errorf("Retained/Count = %d/%d, want equal and not downsampled", hs.Retained, hs.Count)
	}
	var b strings.Builder
	if err := s.Snapshot().WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "retained") {
		t.Errorf("summary flags retained on an exact histogram:\n%s", b.String())
	}
}
