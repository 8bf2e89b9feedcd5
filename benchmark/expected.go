package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"path"
	"strings"

	"repro/internal/olden"
)

// expectedFS holds one frozen reference per program point; README.md
// states where they came from.
//
//go:embed expected/*.json
var expectedFS embed.FS

// expectedOutput is what a program must print and return.
type expectedOutput struct {
	Program string `json:"program"`
	Size    int    `json:"size"`
	Iters   int    `json:"iters"`
	Nodes   int    `json:"nodes"`
	Output  string `json:"output"`
	MainRet int64  `json:"main_ret"`
	// Source records the job the reference was captured from.
	Source string `json:"captured_from"`
}

// loadExpected reads every reference, keyed by program.key().
func loadExpected() (map[string]expectedOutput, error) {
	entries, err := expectedFS.ReadDir("expected")
	if err != nil {
		return nil, err
	}
	out := make(map[string]expectedOutput, len(entries))
	for _, e := range entries {
		b, err := expectedFS.ReadFile(path.Join("expected", e.Name()))
		if err != nil {
			return nil, err
		}
		var x expectedOutput
		if err := json.Unmarshal(b, &x); err != nil {
			return nil, fmt.Errorf("expected/%s: %w", e.Name(), err)
		}
		key := strings.TrimSuffix(e.Name(), ".json")
		p := program{Name: x.Program, Params: olden.Params{Size: x.Size, Iters: x.Iters}, Nodes: x.Nodes}
		if p.key() != key {
			return nil, fmt.Errorf("expected/%s: contents describe %s", e.Name(), p.key())
		}
		out[key] = x
	}
	return out, nil
}

// check compares one response with its reference. The empty string means
// it matches.
func (x expectedOutput) check(output string, mainRet int64) string {
	switch {
	case output != x.Output:
		return fmt.Sprintf("output %q, want %q", output, x.Output)
	case mainRet != x.MainRet:
		return fmt.Sprintf("main_ret %d, want %d", mainRet, x.MainRet)
	}
	return ""
}
