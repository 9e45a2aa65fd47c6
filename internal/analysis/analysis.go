// Package analysis is netpartlint's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// Analyzer/Pass shape (the container image carries no module cache, so the
// framework is built on go/ast and go/types alone).
//
// The analyzers encode the repository's runtime invariants as compile-time
// checks — determinism of the partitioning pipeline, the zero-allocation
// estimate hot path, wire-codec symmetry, sync.Pool and Recycle buffer
// lifetimes in mmps, lock pairing, and checked errors in the commands.
// Each one catches defects the tests do not (EXPERIMENTS E32). The
// contracts they enforce are driven by source-level directives:
//
//	//netpart:deterministic   (package)  output must not depend on map order
//	                                     or global rand
//	//netpart:hotpath         (func)     neither the body nor anything it
//	                                     calls may allocate outside nil/cap-
//	                                     guarded slow paths
//	//netpart:purecallback    (field)    callbacks installed in this func-typed
//	                                     field are pure and allocation-free, so
//	                                     interprocedural solves trust calls
//	                                     through it
//	//netpart:wire <group> <encode|decode> (func) assigns a codec function to a
//	                                     wire group and side when its name does
//	                                     not follow the EncodeX/DecodeX pattern
//	//netpart:lockstep        (func)     the function's sends and receives form
//	                                     a lockstep protocol round. No analyzer
//	                                     here reads it: netpartverify extracts
//	                                     the round (protoextract.go) and model-
//	                                     checks it, and refuses a function it
//	                                     cannot extract; model=<name> and
//	                                     sem=buffered are its arguments
//
// A finding is suppressed with an explained escape hatch on the same line:
//
//	//nolint:netpart reason=<why the invariant does not apply here>
//
// or scoped to one analyzer with //nolint:netpart/<name>. A suppression
// whose reason is missing or empty, or whose <name> is not an analyzer of
// the suite, is itself a diagnostic: unexplained suppressions, and ones
// that outlive the check they waived, are how invariants rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:netpart/<name> suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass connects one analyzer run to one loaded package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	// Inter is the module-wide interprocedural state (call graph + solved
	// summaries) shared by every pass of one Loader; nil when the package
	// was checked without a loader. allocfree, msgproto, and determinism's
	// helper-call propagation consume it.
	Inter *Interproc

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks findings covered by a well-formed //nolint:netpart
	// comment. Check drops them; CheckAll keeps them so tooling (-json) can
	// show what was waived and why.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full netpartlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, AllocFree, MsgProto, PoolFlow, ConcSafety, ErrCheck}
}

// Check runs the given analyzers over one loaded package and returns the
// surviving diagnostics: suppressions are applied, and malformed
// suppressions (no reason, or a scope that names no analyzer) are reported
// as diagnostics of the pseudo analyzer "nolint". Diagnostics come back
// sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := CheckAll(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// CheckAll is Check without the suppression filter: suppressed findings
// are returned with Suppressed set instead of being dropped, for tooling
// that reports what was waived (netpartlint -json). Malformed suppressions
// are still diagnosed, and the result is sorted by position.
func CheckAll(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var inter *Interproc
	if pkg.loader != nil {
		inter = pkg.loader.Interproc()
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			PkgPath:   pkg.Path,
			TypesInfo: pkg.Info,
			Inter:     inter,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// nolintRe matches the suppression marker. It is anchored to the start of
// the comment so prose that merely mentions the convention (like this
// package's documentation) is not a suppression; the analyzer scope and
// the reason are validated separately so malformed variants are diagnosed
// rather than silently ignored.
var nolintRe = regexp.MustCompile(`^//nolint:netpart(/[a-z]+)?\b([^\n]*)`)

// suppression is one parsed //nolint:netpart comment.
type suppression struct {
	analyzer string // empty = all netpart analyzers
	reason   string
	pos      token.Position
}

// parseSuppressions collects the per-line suppressions of one file.
func parseSuppressions(fset *token.FileSet, file *ast.File) map[int][]suppression {
	out := map[int][]suppression{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := nolintRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			s := suppression{
				analyzer: strings.TrimPrefix(m[1], "/"),
				pos:      fset.Position(c.Pos()),
			}
			rest := strings.TrimSpace(m[2])
			if v, ok := strings.CutPrefix(rest, "reason="); ok {
				s.reason = strings.TrimSpace(v)
			}
			out[s.pos.Line] = append(out[s.pos.Line], s)
		}
	}
	return out
}

// applySuppressions marks diagnostics covered by a well-formed
// //nolint:netpart comment on the same line as Suppressed, and reports
// malformed suppressions (empty reason, or a scope outside the suite — the
// waiver of a renamed or retired analyzer suppresses nothing) as
// diagnostics in their own right.
func applySuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	byFile := map[string]map[int][]suppression{}
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		sups := parseSuppressions(pkg.Fset, f)
		if len(sups) == 0 {
			continue
		}
		name := pkg.Fset.Position(f.Pos()).Filename
		byFile[name] = sups
		for _, line := range sups {
			for _, s := range line {
				if s.reason == "" {
					malformed = append(malformed, Diagnostic{
						Analyzer: "nolint",
						Pos:      s.pos,
						Message:  "suppression without a reason: write //nolint:netpart reason=<why this line may break the invariant>",
					})
				}
				if s.analyzer != "" && !slices.Contains(names, s.analyzer) {
					malformed = append(malformed, Diagnostic{
						Analyzer: "nolint",
						Pos:      s.pos,
						Message:  fmt.Sprintf("suppression scoped to %q, which is not an analyzer (valid: %s): it suppresses nothing", s.analyzer, strings.Join(names, ", ")),
					})
				}
			}
		}
	}
	out := malformed
	for _, d := range diags {
		d.Suppressed = suppressed(byFile[d.Pos.Filename][d.Pos.Line], d.Analyzer)
		out = append(out, d)
	}
	return out
}

// suppressed reports whether one of the line's well-formed suppressions
// covers the analyzer.
func suppressed(sups []suppression, analyzer string) bool {
	for _, s := range sups {
		if s.reason == "" {
			continue // malformed suppressions never suppress
		}
		if s.analyzer == "" || s.analyzer == analyzer {
			return true
		}
	}
	return false
}

// --- source directives ---

// hasDirective reports whether a comment group contains the given
// //netpart:<name> directive line.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// packageHasDirective reports whether any file-level comment in the
// package carries the directive (by convention it sits next to the package
// clause of one file).
func packageHasDirective(files []*ast.File, directive string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			if hasDirective(cg, directive) {
				return true
			}
		}
	}
	return false
}

// funcHasDirective reports whether the function's doc comment carries the
// directive.
func funcHasDirective(fd *ast.FuncDecl, directive string) bool {
	return hasDirective(fd.Doc, directive)
}
