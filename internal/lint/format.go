package lint

import (
	"fmt"
	"io"
	"strings"
)

// EncodeGitHub writes diags as GitHub Actions workflow commands, one
// ::error per finding, so a plain CI run annotates the PR inline with
// no upload step.
func EncodeGitHub(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		_, err := fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=dvfslint [%s]::%s\n",
			githubEscapeProp(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
			githubEscapeProp(d.Rule), githubEscape(d.Message))
		if err != nil {
			return err
		}
	}
	return nil
}

// githubEscape applies the workflow-command data escaping rules.
func githubEscape(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// githubEscapeProp applies the stricter property escaping rules:
// property values additionally escape the ',' and ':' delimiters, so a
// comma in a file path cannot smuggle an extra key=value pair into the
// command.
func githubEscapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}
