// Package railsscan is the syntactic static analyzer of Appendix A: it
// scans Ruby(-subset) application sources and counts the concurrency
// control mechanisms under study — models, transactions, pessimistic and
// optimistic locks, validations (by validator kind), and associations.
//
// Like the paper's scripts, the analysis is deliberately syntactic (it must
// survive many Rails versions) with a little state: per-class association
// tracking distinguishes presence validations that guard a belongs_to
// (feral referential integrity) from plain non-null checks, and custom
// validation bodies are inspected for database reads.
package railsscan

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"feralcc/internal/iconfluence"
)

// ValidationUse is one counted validation occurrence.
type ValidationUse struct {
	// Validator is the normalized validator name (validates_presence_of...).
	Validator string
	// Field is the validated attribute or association.
	Field string
	// Model is the declaring class.
	Model string
	// OnAssociation marks presence/associated/existence validations whose
	// field names a belongs_to declared in the same class.
	OnAssociation bool
	// Custom marks validates_each blocks and validates_with classes.
	Custom bool
	// ReadsDatabase marks custom validations whose body queries other
	// models (constant followed by a query method).
	ReadsDatabase bool
}

// Counts is the per-application mechanism census (one Figure 1 column).
type Counts struct {
	App              string
	Models           int
	Transactions     int
	PessimisticLocks int
	OptimisticLocks  int
	Validations      int
	Associations     int
	Uses             []ValidationUse
}

// Scan analyzes an in-memory source tree (path -> contents).
func Scan(app string, files map[string]string) *Counts {
	c := &Counts{App: app}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if !strings.HasSuffix(p, ".rb") {
			continue
		}
		scanFile(c, p, files[p])
	}
	return c
}

// ScanDir analyzes one application directory on disk.
func ScanDir(dir string) (*Counts, error) {
	files := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".rb") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Scan(filepath.Base(dir), files), nil
}

// ScanCorpusDir analyzes a directory of application directories.
func ScanCorpusDir(dir string) ([]*Counts, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Counts
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := ScanDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// classInfo tracks per-class state gathered on the first pass.
type classInfo struct {
	name       string
	isModel    bool
	belongsTo  map[string]bool
	start, end int // line span
}

// scanFile analyzes one Ruby file.
func scanFile(c *Counts, path, content string) {
	lines := readLines(content)
	classes := findClasses(lines)
	validatorBodies := findValidatorClasses(lines, classes)
	inModelsDir := strings.Contains(filepath.ToSlash(path), "app/models/")

	for _, cls := range classes {
		if cls.isModel && inModelsDir {
			c.Models++
		}
		for i := cls.start + 1; i < cls.end; i++ {
			line := strings.TrimSpace(lines[i])
			switch {
			case line == "" || strings.HasPrefix(line, "#"):
				continue
			case isAssociationLine(line):
				c.Associations++
			case strings.HasPrefix(line, "self.locking_column"):
				c.OptimisticLocks++
			}
			c.Transactions += strings.Count(line, ".transaction do") + strings.Count(line, ".transaction(")
			c.PessimisticLocks += countPessimistic(line)
			uses := parseValidationLine(line, lines, i, cls, validatorBodies)
			for _, u := range uses {
				u.Model = cls.name
				c.Uses = append(c.Uses, u)
				c.Validations++
			}
		}
	}
}

// readLines splits content into lines as bufio.ScanLines would — no empty
// final line after a trailing newline, and a trailing '\r' trimmed from each
// line — but with no limit on a line's length.
func readLines(content string) []string {
	lines := strings.Split(content, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, "\r")
	}
	return lines
}

// findClasses locates class declarations and their spans (by matching a
// trailing top-level `end`; the generator emits flat class bodies, and real
// nested blocks are handled by tracking do/end depth).
func findClasses(lines []string) []classInfo {
	var out []classInfo
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "class ") {
			continue
		}
		name := strings.TrimPrefix(line, "class ")
		isModel := false
		if idx := strings.Index(name, "<"); idx >= 0 {
			parent := strings.TrimSpace(name[idx+1:])
			name = strings.TrimSpace(name[:idx])
			// Per Appendix A, projects sometimes extend ActiveRecord::Base
			// with their own base class; accept the common spellings.
			if parent == "ActiveRecord::Base" || parent == "ApplicationRecord" ||
				strings.HasSuffix(parent, "::Base") && strings.Contains(parent, "Record") {
				isModel = true
			}
		}
		info := classInfo{name: name, isModel: isModel, belongsTo: map[string]bool{}, start: i, end: len(lines)}
		depth := 0
		for j := i + 1; j < len(lines); j++ {
			inner := strings.TrimSpace(lines[j])
			if strings.HasPrefix(inner, "class ") && depth == 0 {
				info.end = j
				break
			}
			if opensBlock(inner) {
				depth++
			}
			if inner == "end" {
				if depth == 0 {
					info.end = j
					break
				}
				depth--
			}
		}
		// First pass within the span: collect belongs_to names.
		for j := info.start + 1; j < info.end; j++ {
			inner := strings.TrimSpace(lines[j])
			if strings.HasPrefix(inner, "belongs_to ") {
				if f := firstSymbol(inner); f != "" {
					info.belongsTo[f] = true
				}
			}
		}
		out = append(out, info)
	}
	return out
}

// opensBlock reports whether a line opens a do/def block needing an `end`.
func opensBlock(line string) bool {
	return strings.HasSuffix(line, " do") || strings.Contains(line, " do |") ||
		strings.HasPrefix(line, "def ") || strings.HasPrefix(line, "module ") ||
		strings.HasPrefix(line, "if ") || strings.HasPrefix(line, "unless ")
}

// findValidatorClasses maps custom validator class names to whether their
// bodies read the database.
func findValidatorClasses(lines []string, classes []classInfo) map[string]bool {
	out := map[string]bool{}
	for _, cls := range classes {
		raw := strings.TrimSpace(lines[cls.start])
		if !strings.Contains(raw, "ActiveModel::Validator") &&
			!strings.Contains(raw, "ActiveModel::EachValidator") {
			continue
		}
		reads := false
		for j := cls.start + 1; j < cls.end; j++ {
			if bodyReadsDatabase(lines[j]) {
				reads = true
				break
			}
		}
		out[cls.name] = reads
	}
	return out
}

// bodyReadsDatabase detects a constant receiving a query message, e.g.
// `StockItem.where(...)`, `Setting.find_by(...)`, `Post.count`.
func bodyReadsDatabase(line string) bool {
	for _, m := range []string{".where(", ".find(", ".find_by", ".count", ".exists?", ".first", ".sum("} {
		idx := strings.Index(line, m)
		for idx > 0 {
			// Walk back over the receiver; a leading capital means a model
			// constant rather than a local.
			j := idx - 1
			for j >= 0 && (isWordChar(line[j]) || line[j] == ':') {
				j--
			}
			recv := line[j+1 : idx]
			if len(recv) > 0 && recv[0] >= 'A' && recv[0] <= 'Z' {
				return true
			}
			next := strings.Index(line[idx+1:], m)
			if next < 0 {
				break
			}
			idx += 1 + next
		}
	}
	return false
}

func isWordChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// isAssociationLine matches the four association macros.
func isAssociationLine(line string) bool {
	for _, kw := range []string{"belongs_to ", "has_many ", "has_one ", "has_and_belongs_to_many "} {
		if strings.HasPrefix(line, kw) {
			return true
		}
	}
	return false
}

// countPessimistic counts pessimistic-lock call sites.
func countPessimistic(line string) int {
	n := strings.Count(line, ".lock.") + strings.Count(line, ".lock!") +
		strings.Count(line, "with_lock") + strings.Count(line, ".lock(true)")
	return n
}

// optionValidators maps `validates :f, <option> => ...` keys to normalized
// validator names.
var optionValidators = map[string]string{
	"presence":     "validates_presence_of",
	"uniqueness":   "validates_uniqueness_of",
	"length":       "validates_length_of",
	"inclusion":    "validates_inclusion_of",
	"exclusion":    "validates_exclusion_of",
	"numericality": "validates_numericality_of",
	"format":       "validates_format_of",
	"confirmation": "validates_confirmation_of",
	"acceptance":   "validates_acceptance_of",
	"email":        "validates_email",
	"associated":   "validates_associated",
	"size":         "validates_size_of",
	"absence":      "validates_absence_of",
}

// parseValidationLine extracts the validation uses declared on one line.
func parseValidationLine(line string, lines []string, idx int, cls classInfo,
	validatorClasses map[string]bool) []ValidationUse {

	fields, opts, kind := splitValidationCall(line)
	switch kind {
	case "":
		return nil
	case "validates_with":
		name := strings.TrimSpace(strings.TrimPrefix(line, "validates_with"))
		if c := strings.IndexAny(name, " ,("); c >= 0 {
			name = name[:c]
		}
		return []ValidationUse{{
			Validator:     "validates_with",
			Field:         name,
			Custom:        true,
			ReadsDatabase: validatorClasses[name],
		}}
	case "validates_each":
		reads := false
		for j := idx + 1; j < len(lines); j++ {
			inner := strings.TrimSpace(lines[j])
			if inner == "end" {
				break
			}
			if bodyReadsDatabase(inner) {
				reads = true
			}
		}
		field := ""
		if len(fields) > 0 {
			field = fields[0]
		}
		return []ValidationUse{{
			Validator:     "validates_each",
			Field:         field,
			Custom:        true,
			ReadsDatabase: reads,
		}}
	case "validates":
		var out []ValidationUse
		for _, f := range fields {
			for _, opt := range opts {
				v, ok := optionValidators[opt]
				if !ok {
					continue
				}
				out = append(out, ValidationUse{
					Validator:     v,
					Field:         f,
					OnAssociation: guardsAssociation(v, f, cls),
				})
			}
		}
		return out
	default: // validates_xxx_of style
		var out []ValidationUse
		for _, f := range fields {
			out = append(out, ValidationUse{
				Validator:     kind,
				Field:         f,
				OnAssociation: guardsAssociation(kind, f, cls),
			})
		}
		return out
	}
}

// guardsAssociation reports whether a validation of the given kind on field
// enforces referential integrity for a belongs_to in the class.
func guardsAssociation(validator, field string, cls classInfo) bool {
	switch validator {
	case "validates_presence_of", "validates_associated", "validates_existence_of":
		return cls.belongsTo[field]
	default:
		return false
	}
}

// splitValidationCall dissects a `validates...` line into leading symbol
// fields, option keys, and the call kind ("" when the line is not a
// validation).
func splitValidationCall(line string) (fields []string, opts []string, kind string) {
	word := line
	if c := strings.IndexAny(word, " ("); c >= 0 {
		word = word[:c]
	}
	switch {
	case word == "validates":
		kind = "validates"
	case word == "validates_with":
		return nil, nil, "validates_with"
	case word == "validates_each":
		kind = "validates_each"
	case strings.HasPrefix(word, "validates_"):
		kind = word
	default:
		return nil, nil, ""
	}
	rest := strings.TrimSpace(line[len(word):])
	rest = strings.TrimSuffix(rest, " do |record, attr, value|")
	// Fields are the leading :symbol arguments; options follow as
	// `:key => ...` or `key: ...`.
	depth := 0
	var tokens []string
	cur := strings.Builder{}
	for i := 0; i < len(rest); i++ {
		ch := rest[i]
		switch ch {
		case '(', '{', '[':
			depth++
			cur.WriteByte(ch)
		case ')', '}', ']':
			depth--
			cur.WriteByte(ch)
		case ',':
			if depth == 0 {
				tokens = append(tokens, strings.TrimSpace(cur.String()))
				cur.Reset()
				continue
			}
			cur.WriteByte(ch)
		default:
			cur.WriteByte(ch)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		tokens = append(tokens, s)
	}
	for _, tok := range tokens {
		switch {
		case strings.HasPrefix(tok, ":") && !strings.Contains(tok, "=>"):
			name := strings.TrimPrefix(tok, ":")
			if c := strings.IndexAny(name, " ,"); c >= 0 {
				name = name[:c]
			}
			if strings.Contains(tok, " do") {
				if c := strings.Index(name, " "); c >= 0 {
					name = name[:c]
				}
			}
			fields = append(fields, name)
		case strings.HasPrefix(tok, ":") && strings.Contains(tok, "=>"):
			key := strings.TrimPrefix(tok[:strings.Index(tok, "=>")], ":")
			opts = append(opts, strings.TrimSpace(key))
		case strings.Contains(tok, ":") && !strings.HasPrefix(tok, ":"):
			// new-hash syntax `presence: true`
			opts = append(opts, strings.TrimSpace(tok[:strings.Index(tok, ":")]))
		}
	}
	return fields, opts, kind
}

func firstSymbol(line string) string {
	idx := strings.Index(line, ":")
	if idx < 0 {
		return ""
	}
	rest := line[idx+1:]
	end := 0
	for end < len(rest) && (isWordChar(rest[end])) {
		end++
	}
	return rest[:end]
}

// Invariants converts the scan's validation uses into iconfluence usages.
func (c *Counts) Invariants() []iconfluence.Usage {
	agg := map[iconfluence.Invariant]int{}
	for _, u := range c.Uses {
		inv := iconfluence.Invariant{
			Validator:     u.Validator,
			OnAssociation: u.OnAssociation,
			ReadsDatabase: u.ReadsDatabase,
		}
		if u.Custom {
			// Custom validations classify by their body, not their macro.
			inv.Validator = "custom_" + u.Field
		}
		agg[inv]++
	}
	out := make([]iconfluence.Usage, 0, len(agg))
	for inv, n := range agg {
		out = append(out, iconfluence.Usage{Invariant: inv, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Invariant.Validator != out[j].Invariant.Validator {
			return out[i].Invariant.Validator < out[j].Invariant.Validator
		}
		return out[i].Count > out[j].Count
	})
	return out
}

// MergeInvariants combines the usage profiles of many apps.
func MergeInvariants(counts []*Counts) []iconfluence.Usage {
	agg := map[iconfluence.Invariant]int{}
	for _, c := range counts {
		for _, u := range c.Invariants() {
			agg[u.Invariant] += u.Count
		}
	}
	out := make([]iconfluence.Usage, 0, len(agg))
	for inv, n := range agg {
		out = append(out, iconfluence.Usage{Invariant: inv, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return fmt.Sprint(out[i].Invariant) < fmt.Sprint(out[j].Invariant)
	})
	return out
}
