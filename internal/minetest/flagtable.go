package minetest

import (
	"flag"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// flagCellRe matches one flag name in a table row's first cell.
var flagCellRe = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// FlagTableDiff compares the flags fs defines with the flag table in the
// markdown section under heading, in both directions, and returns one line
// per flag found on only one side (nil when they agree). Table rows start
// with "| `-"; one row may document several flags (| `-m`, `-k` | …). The
// section ends at the next heading.
func FlagTableDiff(markdown, heading string, fs *flag.FlagSet) ([]string, error) {
	_, section, ok := strings.Cut(markdown, "\n"+heading+"\n")
	if !ok {
		return nil, fmt.Errorf("no %q heading", heading)
	}
	var diff []string
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range flagCellRe.FindAllStringSubmatch(cell, -1) {
			if documented[m[1]] {
				diff = append(diff, fmt.Sprintf("-%s is documented twice", m[1]))
			}
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		return nil, fmt.Errorf("no flag rows under %q", heading)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			diff = append(diff, fmt.Sprintf("-%s is defined but not documented", f.Name))
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		diff = append(diff, fmt.Sprintf("-%s is documented but not defined", name))
	}
	sort.Strings(diff)
	return diff, nil
}
