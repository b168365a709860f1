package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCheckFlagProseRejectsUnregisteredFlag: prose naming a flag that no
// binary's table lists is a problem, wherever the span sits; registered
// flags, non-flag spans and fenced code are not.
func TestCheckFlagProseRejectsUnregisteredFlag(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "README.md")
	prose := strings.Join([]string{
		"Tune `-parallel` or `-view-ttl K`; `-retries/-retry-backoff` help a flaky backend.",
		"`?`-vs-`$n` is prose, `llmsql-serve -max-queue/-max-gone` names its tail,",
		"and a span may wrap: `EXPLAIN",
		"-not-a-flag`, while `-` and `-1` are not flags.",
		"```sh",
		"llmsql -fenced `-fenced`",
		"```",
		"Last: `-parallel`, `-gone`.",
	}, "\n")
	if err := os.WriteFile(doc, []byte(prose), 0o644); err != nil {
		t.Fatal(err)
	}
	live := "| Flag | Default | Description |\n| --- | --- | --- |\n" +
		"| `-parallel` | `1` | width |\n| `-view-ttl` | `0` | reads |\n| `-max-queue` | `0` | queue |\n"
	want := []string{
		doc + ":1: `-retries` is not a flag of any binary",
		doc + ":1: `-retry-backoff` is not a flag of any binary",
		doc + ":2: `-max-gone` is not a flag of any binary",
		doc + ":8: `-gone` is not a flag of any binary",
	}
	if got := checkFlagProse(live, doc); !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n got %q\nwant %q", got, want)
	}
	live += "| `-retries` | `0` | budget |\n| `-retry-backoff` | `0s` | base |\n| `-max-gone` | `0` | x |\n| `-gone` | `0` | y |\n"
	if got := checkFlagProse(live, doc); len(got) != 0 {
		t.Fatalf("registered flags flagged: %q", got)
	}
}
