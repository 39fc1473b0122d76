package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"rustprobe"
	"rustprobe/internal/ast"
	"rustprobe/internal/callgraph"
	"rustprobe/internal/cfg"
	"rustprobe/internal/detect"
	"rustprobe/internal/detect/blocking"
	"rustprobe/internal/detect/dfree"
	"rustprobe/internal/detect/doublelock"
	"rustprobe/internal/detect/interiormut"
	"rustprobe/internal/detect/lockorder"
	"rustprobe/internal/detect/race"
	"rustprobe/internal/detect/uaf"
	"rustprobe/internal/detect/uninit"
	"rustprobe/internal/engine"
	"rustprobe/internal/lexer"
	"rustprobe/internal/lower"
	"rustprobe/internal/parser"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
	"rustprobe/internal/unsafety"
)

// detectors mirrors the static suite the engine fans out over, in
// registry order; precise selects the dropflow-refuting variants.
// checkRegistry keeps it in step with rustprobe.DetectorNames.
func detectors(precise bool) []detect.Detector {
	return []detect.Detector{
		&uaf.Detector{Precise: precise},
		doublelock.New(),
		lockorder.New(),
		blocking.New(),
		&dfree.Detector{Precise: precise},
		&uninit.Detector{Precise: precise},
		interiormut.New(),
		race.New(),
	}
}

// checkRegistry fails when the program's detector registry no longer
// matches the one the traced run replays: the replay would then measure
// a different program.
func checkRegistry() error {
	var mine []string
	for _, d := range detectors(false) {
		mine = append(mine, d.Name())
	}
	var theirs []string
	for _, n := range rustprobe.DetectorNames() {
		if n != "dynamic" {
			theirs = append(theirs, n)
		}
	}
	if !slices.Equal(mine, theirs) {
		return fmt.Errorf("traced detector list %v differs from the registry %v", mine, theirs)
	}
	return nil
}

// pipeCounts is the work one traced analysis did, counted at the layer
// boundaries.
type pipeCounts struct {
	tokens, bodies, blocks, edges, findings int
}

func (c *pipeCounts) add(o pipeCounts) {
	c.tokens += o.tokens
	c.bodies += o.bodies
	c.blocks += o.blocks
	c.edges += o.edges
	c.findings += o.findings
}

// pipeOut is what a traced analysis produced.
type pipeOut struct {
	findings []engine.Finding
	unsafe   engine.UnsafeSummary
	counts   pipeCounts
}

// tracedAnalyze performs one stateless analysis by calling each layer's
// public function in the order the engine's entry point reaches them,
// one span per call, and encodes the response the way the daemon does.
func tracedAnalyze(rec *recorder, files map[string]string, precise bool, buf *bytes.Buffer) (*pipeOut, error) {
	out := &pipeOut{}
	fset := source.NewFileSet()
	diags := source.NewDiagnostics(fset)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	crates := make([]*ast.Crate, 0, len(names))
	for _, n := range names {
		s := rec.begin("source.FileSet.Add")
		f := fset.Add(n, files[n])
		rec.end(s)
		s = rec.begin("lexer.Tokenize")
		toks := lexer.New(f, nil).Tokenize()
		rec.end(s)
		out.counts.tokens += len(toks)
		s = rec.begin("parser.ParseFile")
		crates = append(crates, parser.ParseFile(f, diags))
		rec.end(s)
	}

	s := rec.begin("resolve.Crates")
	prog := resolve.Crates(fset, diags, crates...)
	rec.end(s)
	s = rec.begin("lower.Program")
	bodies := lower.Program(prog, diags)
	rec.end(s)
	if diags.HasErrors() {
		return nil, fmt.Errorf("syntax errors:\n%s", diags.String())
	}
	bodyNames := make([]string, 0, len(bodies))
	for n, b := range bodies {
		bodyNames = append(bodyNames, n)
		out.counts.blocks += len(b.Blocks)
	}
	sort.Strings(bodyNames)
	out.counts.bodies = len(bodies)

	s = rec.begin("callgraph.Build")
	g := callgraph.Build(bodies)
	rec.end(s)
	for _, es := range g.Callees {
		out.counts.edges += len(es)
	}
	s = rec.begin("detect.NewContextWithGraph")
	ctx := detect.NewContextWithGraph(prog, bodies, g)
	rec.end(s)

	for _, n := range bodyNames {
		s = rec.begin("cfg.New")
		cfg.New(bodies[n])
		rec.end(s)
	}
	for _, n := range bodyNames {
		s = rec.begin("pointsto")
		ctx.PointsTo(n)
		rec.end(s)
	}
	if precise {
		s = rec.begin("dropflow")
		ctx.DropFlowSummaries()
		for _, n := range bodyNames {
			ctx.DropFlow(n)
		}
		rec.end(s)
	}

	var fs []detect.Finding
	for _, d := range detectors(precise) {
		s = rec.begin("detect." + d.Name())
		fs = append(fs, d.Run(ctx)...)
		rec.end(s)
	}
	detect.SortFindings(fs)
	out.counts.findings = len(fs)

	s = rec.begin("unsafety.Scan")
	rep := unsafety.Scan(prog)
	rec.end(s)
	out.unsafe = engine.UnsafeSummary{Regions: rep.Regions, Fns: rep.Fns, Traits: rep.Traits, Total: rep.TotalUsages()}

	s = rec.begin("encode")
	out.findings = engine.FindingsFrom(fset, fs)
	err := encodeAnalyze(buf, &engine.Response{Findings: out.findings, Unsafe: out.unsafe})
	rec.end(s)
	return out, err
}

// sameResult reports whether two responses carry byte-identical findings
// and unsafe summaries once encoded.
func sameResult(a []engine.Finding, au engine.UnsafeSummary, b []engine.Finding, bu engine.UnsafeSummary) bool {
	return au == bu && bytes.Equal(findingsJSON(a), findingsJSON(b))
}

// findingsJSON encodes a finding list; nil and empty encode alike, as
// they do on the wire once decoded.
func findingsJSON[F any](fs []F) []byte {
	if len(fs) == 0 {
		return []byte("[]")
	}
	b, err := json.Marshal(fs)
	if err != nil {
		panic(err)
	}
	return b
}
