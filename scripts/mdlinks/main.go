// Command mdlinks checks the internal links of markdown files so the
// cross-references between README.md, docs/API.md and docs/ARCHITECTURE.md
// cannot rot: every relative link must point at a file that exists, and
// every fragment (`docs/API.md#section`, or `#section` within a file) must
// match a heading in the target file, using GitHub's anchor slug rules.
// External links (http/https/mailto) are deliberately not fetched — CI
// must not depend on the network — and links inside fenced code blocks are
// ignored.
//
//	go run ./scripts/mdlinks README.md docs/*.md
//
// Exit status 1 lists every broken link with its file and line.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// linkRe matches inline markdown links [text](target). Images and
// reference-style links are rare enough here not to be modelled.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// headingRe matches ATX headings; the anchor is derived from the text.
var headingRe = regexp.MustCompile("^#{1,6}\\s+(.*?)\\s*#*\\s*$")

// slug reproduces GitHub's heading→anchor rule: lowercase, drop anything
// that is not a letter, digit, space, hyphen or underscore, then turn
// spaces into hyphens. Formatting markers (backticks, stars) are dropped
// by the filter.
func slug(heading string) string {
	heading = strings.ToLower(heading)
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_':
			b.WriteRune(r)
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			// Non-ASCII letters survive slugging; punctuation (em-dashes
			// and friends) is dropped like its ASCII counterparts.
			b.WriteRune(r)
		}
	}
	return b.String()
}

// anchorsOf collects the heading anchors of a markdown file, numbering
// duplicates the way GitHub does (x, x-1, x-2, …).
func anchorsOf(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	anchors := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := slug(m[1])
		if n := counts[s]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			anchors[s] = true
		}
		counts[s]++
	}
	return anchors, nil
}

// checkFile returns a message per broken link in the markdown file.
func checkFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if msg := checkLink(path, target); msg != "" {
				broken = append(broken, fmt.Sprintf("%s:%d: [%s] %s", path, lineNo+1, target, msg))
			}
		}
	}
	return broken, nil
}

// checkLink validates one link target relative to the file it appears in.
// The empty return means the link is fine (or out of scope).
func checkLink(fromFile, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return "" // external: not checked offline
	}
	file, frag, _ := strings.Cut(target, "#")
	resolved := filepath.Join(filepath.Dir(fromFile), file)
	if file == "" {
		resolved = fromFile // intra-document fragment
	}
	st, err := os.Stat(resolved)
	if err != nil {
		return "target does not exist"
	}
	if frag == "" {
		return ""
	}
	if st.IsDir() || !strings.HasSuffix(resolved, ".md") {
		return "" // anchors only checked in markdown targets
	}
	anchors, err := anchorsOf(resolved)
	if err != nil {
		return "target unreadable: " + err.Error()
	}
	if !anchors[frag] {
		return fmt.Sprintf("no heading for anchor #%s in %s", frag, resolved)
	}
	return ""
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mdlinks FILE.md ...")
		os.Exit(2)
	}
	bad := 0
	for _, path := range os.Args[1:] {
		broken, err := checkFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdlinks:", err)
			os.Exit(2)
		}
		for _, msg := range broken {
			fmt.Println(msg)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "mdlinks: %d broken links\n", bad)
		os.Exit(1)
	}
}
