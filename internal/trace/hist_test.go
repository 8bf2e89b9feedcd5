package trace

import "testing"

// Edge cases for the pow2 histogram: empty, single-bucket, quantile
// extremes, saturation, and the merge behavior the metrics exposition
// relies on.

func TestHistEmpty(t *testing.T) {
	var h Hist
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %d, want 0", got)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.N != 0 || h.Sum != 0 || h.Min != 0 || h.Max != 0 {
		t.Errorf("empty hist not zero-valued: %+v", h)
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Add(5) // bucket 2: [4, 8)
	if h.N != 1 || h.Sum != 5 || h.Min != 5 || h.Max != 5 {
		t.Fatalf("after one Add(5): %+v", h)
	}
	if got := h.Mean(); got != 5 {
		t.Errorf("Mean = %d, want 5", got)
	}
	// Every quantile of a single-bucket hist is that bucket's upper edge.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7 (upper edge of [4,8))", q, got)
		}
	}
}

func TestHistSingleBucketManySamples(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Add(1000) // bucket 9: [512, 1024)
	}
	if got := h.Quantile(0); got != 1023 {
		t.Errorf("Quantile(0) = %d, want 1023", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("Quantile(1) = %d, want 1023", got)
	}
	if got := h.Mean(); got != 1000 {
		t.Errorf("Mean = %d, want 1000", got)
	}
}

func TestHistQuantileExtremes(t *testing.T) {
	var h Hist
	h.Add(1)    // bucket 0
	h.Add(100)  // bucket 6: [64, 128)
	h.Add(5000) // bucket 12: [4096, 8192)
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want 1 (upper edge of bucket 0)", got)
	}
	if got := h.Quantile(1); got != 8191 {
		t.Errorf("Quantile(1) = %d, want 8191 (upper edge of the top bucket)", got)
	}
	if got := h.Quantile(0.5); got != 127 {
		t.Errorf("Quantile(0.5) = %d, want 127", got)
	}
}

func TestHistZeroAndNegative(t *testing.T) {
	var h Hist
	h.Add(-3) // ignored
	if h.N != 0 {
		t.Fatalf("negative sample was recorded: %+v", h)
	}
	h.Add(0) // bucket 0 also holds 0
	if h.Buckets[0] != 1 || h.N != 1 || h.Min != 0 || h.Max != 0 {
		t.Errorf("after Add(0): %+v", h)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("Quantile(0.5) = %d, want 1 (upper edge of bucket 0)", got)
	}
}

func TestHistSaturatesTopBucket(t *testing.T) {
	var h Hist
	huge := int64(1) << 62 // Len64 would index past the last bucket
	h.Add(huge)
	if h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatalf("huge sample not clamped into the top bucket: %+v", h.Buckets)
	}
	if h.Max != huge {
		t.Errorf("Max = %d, want %d", h.Max, huge)
	}
}
