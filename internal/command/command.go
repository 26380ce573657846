// Package command is the exit-code policy the repository's commands
// share. A command is a run(args, stdout) function, so its tests drive
// it in process; Main runs it and exits:
//
//	0 — success, or -h
//	1 — operational failure: a failed case or experiment, a write error
//	2 — usage error: a bad flag or argument, an unknown name
package command

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// UsageError marks a bad command line: Main exits 2 on it.
type UsageError struct{ error }

// Usage wraps err as a UsageError.
func Usage(err error) error { return UsageError{err} }

// Parse parses args into fs. A bad flag or a stray argument is a
// UsageError; -h is flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return UsageError{err}
	}
	if fs.NArg() > 0 {
		return UsageError{fmt.Errorf("unexpected arguments %v", fs.Args())}
	}
	return nil
}

// Main runs run on the process's arguments and stdout, reports an
// error on stderr under name, and exits by the policy above.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, name+":", err)
	if errors.As(err, new(UsageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}
