// Command errcheck is the fixture for the discarded-error analyzer, which
// checks package main only.
package main

import (
	"fmt"
	"os"
	"strings"
)

func discarded(f *os.File) {
	f.Close() // want `f\.Close returns an error that is discarded`
}

func handled(f *os.File) error {
	return f.Close()
}

func explicit(f *os.File) {
	_ = f.Close() // visible decision: accepted
}

func deferred(f *os.File) {
	defer f.Close() // deferred close on read paths: accepted idiom
}

func exemptFmt() {
	fmt.Println("fmt printers are exempt")
}

func exemptBuilder(sb *strings.Builder) {
	sb.WriteString("never fails")
}
