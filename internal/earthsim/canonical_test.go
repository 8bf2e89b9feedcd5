package earthsim_test

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/contenthash"
)

// canonicalTrace hashes a Chrome trace export so that two recordings of the
// same events hash equal whatever order the events were recorded in and
// however their messages were numbered: every message reference (a span's or
// fault's "msg", a lifecycle's "id") is replaced by the message it names —
// class, site, endpoints, fiber, words, issue and completion time — and the
// events are sorted. Identical messages stay distinct entries, so what is
// compared is the multiset of events.
func canonicalTrace(t *testing.T, chrome string) string {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(strings.NewReader(chrome))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("canonicalTrace: %v", err)
	}
	// A message's content is its "b" event without the id, plus the time of
	// its "e" event.
	ends := map[json.Number]any{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "e" {
			ends[ev["id"].(json.Number)] = ev["ts"]
		}
	}
	content := map[json.Number]string{"0": "none"}
	lines := make([]string, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "b" {
			id := ev["id"].(json.Number)
			delete(ev, "id")
			ev["end"] = ends[id]
			content[id] = sortedJSON(t, ev)
			lines = append(lines, "msg "+content[id])
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "b" || ev["ph"] == "e" {
			continue // a message, listed above
		}
		if args, ok := ev["args"].(map[string]any); ok {
			if id, ok := args["msg"].(json.Number); ok {
				c, ok := content[id]
				if !ok {
					t.Fatalf("canonicalTrace: reference to unknown message %s", id)
				}
				args["msg"] = c
			}
		}
		lines = append(lines, sortedJSON(t, ev))
	}
	slices.Sort(lines)
	return contenthash.Source(strings.Join(lines, "\n"))
}

// sortedJSON renders v as JSON with map keys sorted.
func sortedJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
