package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// DocCommand is one command line of a repository binary quoted in its
// docs.
type DocCommand struct {
	// Where is the quote's file:line.
	Where string
	// Tool is the binary: the directory under cmd/ ("omegabench").
	Tool string
	// Args are the arguments after the binary's name, up to the first
	// shell operator or comment.
	Args []string
}

// docFiles are the globs, relative to the repository root, whose quoted
// command lines the doc gate parses. CHANGES.md, ROADMAP.md and ISSUE.md
// are left out on purpose: a change log and a plan quote retired and
// not-yet-built command lines.
var docFiles = []string{
	"README.md", "ARCHITECTURE.md", "doc.go", "*/doc.go",
	".github/workflows/*.yml", ".claude/skills/verify/SKILL.md",
}

var (
	// docCommand matches a command line at the start of a quote: a
	// `go run ./cmd/X` or a bare binary name, then its arguments.
	docCommand = regexp.MustCompile(`^(?:\$ )?(?:go run \./cmd/([\w-]+)|(omegabench|omegalint))(?: (.*))?$`)
	// inlineCode is a backtick span; in Markdown it may wrap lines.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// commentLead strips the comment markers a Go doc span wraps over.
	commentLead = regexp.MustCompile(`\n\s*(//)?`)
)

// DocCommands returns every command line of a repository binary quoted
// in the docs under root: inline code spans, code-block lines (Markdown
// fences, Go doc indents), and workflow lines that `go run ./cmd/...`.
// Backslash continuations are joined, quotes around an argument dropped,
// and a shell expansion ("$seeds") stands for 0. A synopsis ("[-quick]",
// "[ID ...]") is not a command line and is skipped.
func DocCommands(root string) ([]DocCommand, error) {
	var out []DocCommand
	for _, glob := range docFiles {
		paths, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			rel, _ := filepath.Rel(root, path)
			out = append(out, quotedCommands(rel, string(raw))...)
		}
	}
	return out, nil
}

// quotedCommands extracts the command lines of one doc file.
func quotedCommands(name, text string) []DocCommand {
	// Join continuations without moving any offset, so line numbers hold.
	text = strings.ReplaceAll(text, "\\\n", "  ")
	var out []DocCommand
	add := func(offset int, quote string) {
		quote = strings.Join(strings.Fields(commentLead.ReplaceAllString(quote, " ")), " ")
		m := docCommand.FindStringSubmatch(quote)
		if m == nil {
			return
		}
		c := DocCommand{Where: fmt.Sprintf("%s:%d", name, 1+strings.Count(text[:offset], "\n")), Tool: m[1] + m[2]}
		for _, f := range strings.Fields(m[3]) {
			if strings.ContainsAny(f[:1], "|;&>#)") {
				break
			}
			if strings.ContainsAny(f, "[]<") || f == "..." || f == "…" {
				return // a synopsis
			}
			if strings.Contains(f, "$") {
				f = "0" // a shell expansion: a value every int, string and duration flag takes
			}
			c.Args = append(c.Args, strings.Trim(f, `"'`))
		}
		out = append(out, c)
	}
	lines := strings.SplitAfter(text, "\n")
	prose := []byte(text) // text with code blocks blanked, offsets kept
	offset, fenced := 0, false
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		code := fenced
		switch {
		case strings.HasPrefix(trimmed, "```"):
			fenced, code = !fenced, true
		case strings.HasSuffix(name, ".yml"):
			if i := strings.Index(line, "go run ./cmd/"); i >= 0 {
				add(offset, line[i:])
			}
			code = true
		case strings.HasPrefix(line, "//\t"):
			add(offset, line[3:])
			code = true
		case fenced:
			add(offset, trimmed)
		}
		if code {
			for i := offset; i < offset+len(line); i++ {
				if prose[i] != '\n' {
					prose[i] = ' '
				}
			}
		}
		offset += len(line)
	}
	for _, m := range inlineCode.FindAllSubmatchIndex(prose, -1) {
		add(m[2], string(prose[m[2]:m[3]]))
	}
	return out
}
