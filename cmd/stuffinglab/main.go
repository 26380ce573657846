// Command stuffinglab explores the §4.1 verified bit-stuffing space:
// validate a rule, encode/decode a message, or enumerate the library
// of valid rules for a flag length.
//
//	stuffinglab -library -flaglen 8          # the rule library, ranked
//	stuffinglab -flag 01111110 -watch 11111 -stuff 0 -data 1011111111
//	stuffinglab -validate -flag 0101 -watch 10 -stuff 1
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/command"
	"repro/internal/stuffing"
)

func main() { command.Main("stuffinglab", run) }

// run parses args and writes the report to stdout. A rule that fails
// the decision procedure is an error, after its report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stuffinglab", flag.ContinueOnError)
	var (
		library  = fs.Bool("library", false, "enumerate the valid-rule library")
		flagLen  = fs.Int("flaglen", 8, "flag length for -library")
		top      = fs.Int("top", 15, "library rows to print")
		flagBits = fs.String("flag", "01111110", "flag pattern")
		watch    = fs.String("watch", "11111", "watch pattern")
		stuffBit = fs.Int("stuff", 0, "stuff bit (0 or 1)")
		data     = fs.String("data", "", "data bits to encode/decode")
		validate = fs.Bool("validate", false, "only run the decision procedure")
	)
	if err := command.Parse(fs, args); err != nil {
		return err
	}

	if *library {
		lib := stuffing.Library(*flagLen)
		hdlc := stuffing.HDLC().MarkovOverhead()
		fmt.Fprintf(stdout, "valid rules for %d-bit flags: %d (paper's family found 66)\n", *flagLen, len(lib))
		cheaper := 0
		for _, r := range lib {
			if r.MarkovOverhead() < hdlc {
				cheaper++
			}
		}
		fmt.Fprintf(stdout, "cheaper than HDLC's exact rate (1/%.1f): %d\n\n", 1/hdlc, cheaper)
		fmt.Fprintf(stdout, "%-40s %14s %14s\n", "rule", "naive", "exact")
		for i, r := range lib {
			if i == *top {
				fmt.Fprintf(stdout, "... %d more\n", len(lib)-i)
				break
			}
			fmt.Fprintf(stdout, "%-40s %14s %14s\n", r.String(),
				fmt.Sprintf("1/%.0f", 1/r.NaiveOverhead()),
				fmt.Sprintf("1/%.1f", 1/r.MarkovOverhead()))
		}
		return nil
	}

	rule, err := parseRule(*flagBits, *watch, *stuffBit)
	if err != nil {
		return command.Usage(err)
	}
	fmt.Fprintf(stdout, "rule: %s\n", rule)
	if verr := rule.Validate(); verr != nil {
		fmt.Fprintf(stdout, "decision procedure: INVALID — %v\n", verr)
		if ce, ok := rule.CheckExhaustive(12); !ok {
			fmt.Fprintf(stdout, "counterexample data: %s\n", ce)
		}
		return fmt.Errorf("rule %s is invalid", rule)
	}
	fmt.Fprintf(stdout, "decision procedure: VALID for all data strings\n")
	fmt.Fprintf(stdout, "overhead: naive 1/%.0f, exact 1/%.1f\n",
		1/rule.NaiveOverhead(), 1/rule.MarkovOverhead())
	if *validate || *data == "" {
		return nil
	}
	d, err := bitio.Parse(*data)
	if err != nil {
		return command.Usage(err)
	}
	enc, err := rule.Encode(d)
	if err != nil {
		return err
	}
	dec, err := rule.Decode(enc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "data:    %s (%d bits)\n", d, d.Len())
	fmt.Fprintf(stdout, "encoded: %s (%d bits, %d stuffed)\n", enc, enc.Len(),
		enc.Len()-d.Len()-2*rule.Flag.Len())
	fmt.Fprintf(stdout, "decoded: %s (round trip %v)\n", dec, dec.Equal(d))
	return nil
}

func parseRule(f, w string, b int) (stuffing.Rule, error) {
	fb, err := bitio.Parse(f)
	if err != nil {
		return stuffing.Rule{}, err
	}
	wb, err := bitio.Parse(w)
	if err != nil {
		return stuffing.Rule{}, err
	}
	if b != 0 && b != 1 {
		return stuffing.Rule{}, fmt.Errorf("stuff bit must be 0 or 1")
	}
	return stuffing.Rule{Flag: fb, Watch: wb, Insert: bitio.Bit(b)}, nil
}
