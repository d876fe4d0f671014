// Pipeline demonstrates layout programming with relocation semantics on a
// document-processing application (§2 of the paper): a Worker complet holds
//
//   - a pull reference to its Tokenizer (they interact per document and must
//     stay co-located),
//   - a duplicate reference to a read-only Dictionary (each site can keep its
//     own replica without violating application semantics),
//   - a link reference to the shared Archive (one instance, tracked wherever
//     the worker goes).
//
// Moving the Worker therefore drags the Tokenizer along, copies the
// Dictionary, and leaves the Archive in place — all declared on the
// references, not coded into the move.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"fargo"
)

// Tokenizer splits documents into words. Pull-referenced by the worker.
type Tokenizer struct {
	Sep string
}

// Init sets the separator.
func (t *Tokenizer) Init(sep string) { t.Sep = sep }

// Split tokenizes one document.
func (t *Tokenizer) Split(doc string) []string {
	return strings.FieldsFunc(doc, func(r rune) bool { return strings.ContainsRune(t.Sep, r) })
}

// Dictionary is a read-only word set. Duplicate-referenced: replicas travel.
type Dictionary struct {
	Words map[string]bool
}

// Init fills the dictionary.
func (d *Dictionary) Init(words []string) {
	d.Words = make(map[string]bool, len(words))
	for _, w := range words {
		d.Words[w] = true
	}
}

// Known reports whether a word is in the dictionary.
func (d *Dictionary) Known(w string) bool { return d.Words[strings.ToLower(w)] }

// Archive collects results. Link-referenced: exactly one instance.
type Archive struct {
	Entries []string
}

// Add records one result line.
func (a *Archive) Add(line string) { a.Entries = append(a.Entries, line) }

// Dump returns everything archived so far.
func (a *Archive) Dump() []string { return a.Entries }

// Worker drives the pipeline. Its reference fields carry the layout
// semantics.
type Worker struct {
	Tok  *fargo.Ref // pull
	Dict *fargo.Ref // duplicate
	Arch *fargo.Ref // link
}

// Wire installs the worker's references with their relocation semantics.
func (w *Worker) Wire(tok, dict, arch *fargo.Ref) error {
	if err := tok.Meta().SetRelocator(fargo.Pull{}); err != nil {
		return err
	}
	if err := dict.Meta().SetRelocator(fargo.Duplicate{}); err != nil {
		return err
	}
	// arch keeps the default link relocator.
	w.Tok, w.Dict, w.Arch = tok, dict, arch
	return nil
}

// Process tokenizes a document, filters known words, archives the result.
func (w *Worker) Process(doc string) (int, error) {
	res, err := w.Tok.Invoke("Split", doc)
	if err != nil {
		return 0, fmt.Errorf("tokenize: %w", err)
	}
	words, _ := res[0].([]string)
	var kept []string
	for _, word := range words {
		known, err := w.Dict.Invoke("Known", word)
		if err != nil {
			return 0, fmt.Errorf("dictionary: %w", err)
		}
		if known[0] == true {
			kept = append(kept, word)
		}
	}
	if _, err := w.Arch.Invoke("Add", strings.Join(kept, " ")); err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	return len(kept), nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	u, err := fargo.NewUniverse(1)
	if err != nil {
		return err
	}
	defer u.Close()
	for name, proto := range map[string]any{
		"Tokenizer":  (*Tokenizer)(nil),
		"Dictionary": (*Dictionary)(nil),
		"Archive":    (*Archive)(nil),
		"Worker":     (*Worker)(nil),
	} {
		if err := u.Register(name, proto); err != nil {
			return err
		}
	}
	hq, err := u.NewCore("hq")
	if err != nil {
		return err
	}
	if _, err := u.NewCore("branch"); err != nil {
		return err
	}

	// Deploy everything at HQ.
	tok, err := hq.NewComplet("Tokenizer", " .,;")
	if err != nil {
		return err
	}
	dict, err := hq.NewComplet("Dictionary", []string{"dynamic", "layout", "distributed"})
	if err != nil {
		return err
	}
	arch, err := hq.NewComplet("Archive")
	if err != nil {
		return err
	}
	worker, err := hq.NewComplet("Worker")
	if err != nil {
		return err
	}
	if _, err := worker.Invoke("Wire", tok, dict, arch); err != nil {
		return err
	}

	process := func(doc string) error {
		n, err := worker.Invoke("Process", doc)
		if err != nil {
			return err
		}
		loc, _ := worker.Meta().Location()
		fmt.Printf("processed at %-6s -> %v known words\n", loc, n[0])
		return nil
	}
	if err := process("Dynamic layout of distributed applications"); err != nil {
		return err
	}

	// Relocate the worker to the branch office. The pull reference drags
	// the tokenizer, the duplicate reference copies the dictionary, the
	// link reference keeps pointing at HQ's archive.
	if err := hq.Move(worker, "branch"); err != nil {
		return err
	}
	fmt.Println("worker moved to branch")
	if err := process("Layout is dynamic and the system is distributed"); err != nil {
		return err
	}

	for _, name := range []string{"hq", "branch"} {
		c, _ := u.Core(name)
		reply, err := c.ObsAtCtx(context.Background(), fargo.CoreID(name), fargo.ObsQuery{Info: true})
		if err != nil {
			return err
		}
		var types []string
		for _, ci := range reply.Info.Complets {
			types = append(types, ci.TypeName)
		}
		fmt.Printf("%-6s hosts: %s\n", name, strings.Join(types, ", "))
	}

	// Both documents reached the single archive at HQ through the link.
	dump, err := arch.Invoke("Dump")
	if err != nil {
		return err
	}
	fmt.Printf("archive: %q\n", dump[0])
	return nil
}
