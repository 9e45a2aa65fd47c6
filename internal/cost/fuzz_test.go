package cost

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTable hardens the cost-table decoder.
func FuzzReadTable(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteTable(&buf, PaperTable())
	f.Add(buf.String())
	chains := PaperTable()
	chains.SetChain("sparc2", 3, "", 0, PerByte{FixedMs: 1.35, Ms: 0.003113})
	chains.SetChain("sparc2", 6, "ipc", 2, PerByte{FixedMs: 2.503, Ms: 0.008204})
	buf.Reset()
	_ = WriteTable(&buf, chains)
	f.Add(buf.String())
	f.Add(`{"comm":[]}`)
	f.Add(`nope`)
	f.Fuzz(func(t *testing.T, src string) {
		tbl, err := ReadTable(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTable(&out, tbl); err != nil {
			t.Fatalf("accepted table does not re-encode: %v", err)
		}
	})
}
