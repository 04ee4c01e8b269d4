package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"feralcc/internal/obs"
)

// catalogRow is one row of DESIGN.md's metric catalog.
type catalogRow struct {
	reader, tests string
}

// TestMetricCatalog holds DESIGN.md's "Metric catalog" table equal to the
// metric families this binary registers. feralbench links every package that
// registers one, so the default registry's # TYPE lines are the whole set. A
// row must also name a reader that reads the family and a test that exists.
func TestMetricCatalog(t *testing.T) {
	var scrape bytes.Buffer
	if err := obs.Default().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			registered[strings.Fields(rest)[0]] = true
		}
	}

	rows, design := parseCatalog(t, readFile(t, "../../DESIGN.md"))
	// The reader names a row may use, and the text each reader's family
	// names must appear in: a program's source, or a document outside the
	// table.
	readers := map[string]string{
		"feralperf":   goSources(t, "../../bench/feralperf"),
		"feralbench":  readFile(t, "main.go"),
		"DESIGN":      design,
		"EXPERIMENTS": readFile(t, "../../EXPERIMENTS.md"),
	}
	tests := testFuncs(t, "../..")
	testName := regexp.MustCompile(`Test\w+`)
	quoted := regexp.MustCompile(`"([^"]+)"`)

	for family, row := range rows {
		if !registered[family] {
			t.Errorf("DESIGN.md catalog row %s names no registered family", family)
		}
		named := false
		for reader, text := range readers {
			if !strings.Contains(row.reader, reader) {
				continue
			}
			named = true
			if reader == "DESIGN" || reader == "EXPERIMENTS" {
				// A document reader is the paragraph whose title is quoted.
				m := quoted.FindStringSubmatch(row.reader[strings.Index(row.reader, reader):])
				if m == nil {
					t.Errorf("%s: reader %s names no paragraph", family, reader)
					continue
				}
				text = paragraph(text, m[1])
			}
			if !strings.Contains(text, family) {
				t.Errorf("%s: its reader %q never names it", family, reader)
			}
		}
		if !named {
			t.Errorf("%s: reader %q names none of feralperf, feralbench, DESIGN, EXPERIMENTS", family, row.reader)
		}
		names := testName.FindAllString(row.tests, -1)
		if len(names) == 0 {
			t.Errorf("%s: no test named", family)
		}
		for _, name := range names {
			if !tests[name] {
				t.Errorf("%s: test %s does not exist", family, name)
			}
		}
	}
	for family := range registered {
		if _, ok := rows[family]; !ok {
			t.Errorf("registered family %s has no row in DESIGN.md's metric catalog", family)
		}
	}
}

// parseCatalog returns the rows of the table after "**Metric catalog.**",
// keyed by family, and the document with that table cut out.
func parseCatalog(t *testing.T, doc string) (map[string]catalogRow, string) {
	start := strings.Index(doc, "**Metric catalog.**")
	if start < 0 {
		t.Fatal("DESIGN.md has no **Metric catalog.** paragraph")
	}
	tableStart := strings.Index(doc[start:], "\n| Family |")
	if tableStart < 0 {
		t.Fatal("DESIGN.md's metric catalog has no table")
	}
	tableStart += start + 1
	tableEnd := strings.Index(doc[tableStart:], "\n\n")
	if tableEnd < 0 {
		t.Fatal("DESIGN.md's metric catalog table does not end")
	}
	tableEnd += tableStart
	rows := map[string]catalogRow{}
	for _, line := range strings.Split(doc[tableStart:tableEnd], "\n")[2:] {
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
		if len(cells) != 4 {
			t.Fatalf("catalog row has %d cells, want 4: %s", len(cells), line)
		}
		family := strings.Trim(cells[0], "`")
		if _, dup := rows[family]; dup {
			t.Errorf("catalog lists %s twice", family)
		}
		rows[family] = catalogRow{reader: cells[2], tests: cells[3]}
	}
	return rows, doc[:tableStart] + doc[tableEnd:]
}

// paragraph returns the part of doc from the first mention of title up to the
// next bold paragraph title or heading, or "" when title is absent.
func paragraph(doc, title string) string {
	i := strings.Index(doc, title)
	if i < 0 {
		return ""
	}
	rest := doc[i+len(title):]
	end := len(rest)
	for _, next := range []string{"\n**", "\n#"} {
		if j := strings.Index(rest, next); j >= 0 && j < end {
			end = j
		}
	}
	return doc[i : i+len(title)+end]
}

// testFuncs collects the names of the top-level test functions under root.
func testFuncs(t *testing.T, root string) map[string]bool {
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range decl.FindAllStringSubmatch(readFile(t, path), -1) {
			found[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// goSources concatenates the non-test Go files of dir.
func goSources(t *testing.T, dir string) string {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range paths {
		if !strings.HasSuffix(p, "_test.go") {
			b.WriteString(readFile(t, p))
		}
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
