package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"io"
	"os"
	"strings"
	"testing"

	"netpart/internal/analysis"
)

// TestWriteNDJSON pins the -json wire format: one object per line with
// exactly the file/line/analyzer/message/suppressed fields, suppressed
// findings present in the stream but excluded from the live count.
func TestWriteNDJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Analyzer: "concsafety",
			Pos:      token.Position{Filename: "a/b.go", Line: 12, Column: 3},
			Message:  "c.mu acquired here may still be held when the function returns",
		},
		{
			Analyzer:   "units",
			Pos:        token.Position{Filename: "c/d.go", Line: 44, Column: 9},
			Message:    `dimension mismatch: pdus - 1`,
			Suppressed: true,
		},
	}
	var buf bytes.Buffer
	live, err := writeNDJSON(&buf, diags)
	if err != nil {
		t.Fatalf("writeNDJSON: %v", err)
	}
	if live != 1 {
		t.Errorf("live violations = %d, want 1 (suppressed findings must not count)", live)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(diags) {
		t.Fatalf("emitted %d lines, want %d:\n%s", len(lines), len(diags), buf.String())
	}
	var got []jsonDiag
	for i, line := range lines {
		var jd jsonDiag
		if err := json.Unmarshal([]byte(line), &jd); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		// Every line must be a flat object with exactly the five
		// documented keys — downstream tooling greps on them.
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"file", "line", "analyzer", "message", "suppressed"} {
			if _, ok := raw[k]; !ok {
				t.Errorf("line %d missing key %q: %s", i, k, line)
			}
		}
		if len(raw) != 5 {
			t.Errorf("line %d has %d keys, want 5: %s", i, len(raw), line)
		}
		got = append(got, jd)
	}

	want := []jsonDiag{
		{File: "a/b.go", Line: 12, Analyzer: "concsafety", Message: diags[0].Message, Suppressed: false},
		{File: "c/d.go", Line: 44, Analyzer: "units", Message: diags[1].Message, Suppressed: true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWriteNDJSONSorted: the stream is globally ordered by
// (file, line, analyzer) regardless of the order packages were loaded
// and checked in, so -json output is byte-stable across runs.
func TestWriteNDJSONSorted(t *testing.T) {
	diags := []analysis.Diagnostic{
		{Analyzer: "units", Pos: token.Position{Filename: "z/late.go", Line: 3}, Message: "m3"},
		{Analyzer: "poolflow", Pos: token.Position{Filename: "a/early.go", Line: 90}, Message: "m2"},
		{Analyzer: "msgproto", Pos: token.Position{Filename: "a/early.go", Line: 7}, Message: "m1"},
		{Analyzer: "allocfree", Pos: token.Position{Filename: "a/early.go", Line: 7}, Message: "m0"},
	}
	var buf bytes.Buffer
	if _, err := writeNDJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var order []string
	for _, line := range lines {
		var jd jsonDiag
		if err := json.Unmarshal([]byte(line), &jd); err != nil {
			t.Fatal(err)
		}
		order = append(order, jd.Message)
	}
	want := []string{"m0", "m1", "m2", "m3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("emission order = %v, want %v", order, want)
		}
	}
}

// TestSelectAnalyzers pins the -analyzers flag semantics: subsetting keeps
// suite order, whitespace is tolerated, and any unknown name rejects the
// whole list (nil) rather than silently running a partial suite.
func TestSelectAnalyzers(t *testing.T) {
	all := analysis.Analyzers()
	got := selectAnalyzers(all, "msgproto, allocfree")
	if len(got) != 2 {
		t.Fatalf("selected %d analyzers, want 2", len(got))
	}
	// Suite order, not flag order: allocfree precedes msgproto in Analyzers().
	if got[0].Name != "allocfree" || got[1].Name != "msgproto" {
		t.Errorf("selection = [%s %s], want suite order [allocfree msgproto]", got[0].Name, got[1].Name)
	}
	if selectAnalyzers(all, "allocfree,nosuchanalyzer") != nil {
		t.Error("unknown analyzer name must reject the whole selection")
	}
	if selectAnalyzers(all, " , ") != nil {
		t.Error("a blank selection must be rejected, not run zero analyzers")
	}
}

// TestWriteNDJSONEmpty: a clean tree emits nothing, not an empty array or
// a trailing newline.
func TestWriteNDJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	live, err := writeNDJSON(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live != 0 || buf.Len() != 0 {
		t.Errorf("empty input: live=%d output=%q, want 0 and empty", live, buf.String())
	}
}

// TestUnknownAnalyzerListsValidNames pins the -analyzers failure mode: an
// unknown name must fail fast (exit 2, nothing analyzed) and the error
// must list every valid analyzer name so the caller can fix the flag
// without hunting for -list.
func TestUnknownAnalyzerListsValidNames(t *testing.T) {
	oldStderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	code := run([]string{"-analyzers", "nosuchanalyzer"})
	w.Close()
	os.Stderr = oldStderr
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, buf.String())
	}
	msg := buf.String()
	if !strings.Contains(msg, `"nosuchanalyzer"`) {
		t.Errorf("error does not quote the offending name: %s", msg)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error does not list valid analyzer %q: %s", a.Name, msg)
		}
	}
}
