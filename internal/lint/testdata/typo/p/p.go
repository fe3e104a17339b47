// Package p is the misspelt-directive corpus: the allow names an
// analyzer that does not exist, so it suppresses nothing, and the
// wall-clock read it was meant to cover is reported as well.
package p

import "time"

var now = time.Now //detlint:allow wallclok: injectable clock for tests
