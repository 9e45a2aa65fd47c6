// Package determinism is the fixture for the determinism analyzer.
//
//netpart:deterministic
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
)

func draw() int {
	return rand.Int() // want `global rand\.Int is auto-seeded`
}

func seeded() *rand.Rand {
	return rand.New(rand.NewSource(1)) // explicit seed: sanctioned
}

func printAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over map m`
	}
}

func collectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append inside range over map m`
	}
	return out
}

func collectSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // collect-then-sort: rescued by the sort below
	}
	sort.Strings(out)
	return out
}

func collectLocalSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // rescued by the zero-dep local sort helper
	}
	sortInPlace(out)
	return out
}

func sortInPlace(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func buildString(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `string built inside range over map m`
	}
	return s
}

func sendKeys(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside range over map m`
	}
}
