package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LintPrometheus validates a text-exposition scrape: every line must be a
// well-formed # HELP / # TYPE comment or a `name[{labels}] value` sample,
// each family's # TYPE must precede its samples, and sample values must
// parse as floats. It returns an error naming the first offending line.
// TestObsSmoke (run by `make check`) lints a live feraldbd scrape with it.
func LintPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	typed := make(map[string]string) // family -> declared type
	lineNo := 0
	sawSample := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := lintComment(line, typed); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := lintSample(line, typed); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		sawSample = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawSample {
		return fmt.Errorf("scrape contains no samples")
	}
	return nil
}

func lintComment(line string, typed map[string]string) error {
	parts := strings.SplitN(line, " ", 4)
	if len(parts) < 3 || parts[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch parts[1] {
	case "HELP":
		if !validName(parts[2]) {
			return fmt.Errorf("HELP for invalid metric name %q", parts[2])
		}
	case "TYPE":
		if !validName(parts[2]) {
			return fmt.Errorf("TYPE for invalid metric name %q", parts[2])
		}
		if len(parts) < 4 {
			return fmt.Errorf("TYPE %s missing type", parts[2])
		}
		switch parts[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE %s has unknown type %q", parts[2], parts[3])
		}
		if prev, ok := typed[parts[2]]; ok {
			return fmt.Errorf("duplicate TYPE for %s (already %s)", parts[2], prev)
		}
		typed[parts[2]] = parts[3]
	default:
		return fmt.Errorf("unknown comment directive %q", parts[1])
	}
	return nil
}

func lintSample(line string, typed map[string]string) error {
	name := line
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return fmt.Errorf("unbalanced label braces in %q", line)
		}
		name = line[:i]
		if err := lintLabels(line[i+1 : j]); err != nil {
			return fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("sample %q has no value", line)
		}
		name = line[:i]
		rest = strings.TrimSpace(line[i+1:])
	}
	if !validName(name) {
		return fmt.Errorf("invalid sample name %q", name)
	}
	// A histogram family declares `x` and exposes x_bucket/x_sum/x_count.
	base := name
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if t, ok := typed[strings.TrimSuffix(name, suf)]; ok && t == "histogram" && strings.HasSuffix(name, suf) {
			base = strings.TrimSuffix(name, suf)
		}
	}
	if _, ok := typed[base]; !ok {
		return fmt.Errorf("sample %q has no preceding # TYPE", name)
	}
	// Value (and optional timestamp) must be numeric.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q has %d value fields", name, len(fields))
	}
	if _, err := parseSampleValue(fields[0]); err != nil {
		return fmt.Errorf("sample %q has bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q has bad timestamp %q", name, fields[1])
		}
	}
	return nil
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

func lintLabels(s string) error {
	if s == "" {
		return nil
	}
	// Split on commas outside quotes; values are double-quoted strings.
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair")
		}
		key := s[:eq]
		if !validName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) < 2 || s[0] != '"' {
			return fmt.Errorf("label %q value not quoted", key)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("label %q value unterminated", key)
		}
		s = s[end+1:]
		if s == "" {
			return nil
		}
		if !strings.HasPrefix(s, ",") {
			return fmt.Errorf("junk after label %q", key)
		}
		s = s[1:]
	}
	return nil
}
