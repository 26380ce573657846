// Package second is a replace-linked module whose tests count as
// callers.
package second
