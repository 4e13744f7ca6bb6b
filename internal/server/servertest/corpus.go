// Package servertest holds request bodies shared by the tests of the
// serving packages: the strict-decoder corpus that internal/server's
// differential tests and internal/router's decode fuzz target both
// start from.
package servertest

// FastDecodeCorpus returns bodies the strict decoder is expected to
// handle, plus shapes it must reject (escapes, exponents, unknown
// fields, duplicates, trailing data) — rejection routes to the slow
// path, acceptance must match encoding/json field for field.
func FastDecodeCorpus() []string {
	return []string{
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5},{"id":1,"size":4}],"assign":[0,0]},"k":1}`,
		`{"solver":"mpartition","instance":{"m":3,"jobs":[{"id":0,"size":9,"cost":2}],"assign":[1]},"k":2,"timeout_ms":50}`,
		`{"solver":"ptas","instance":{"m":2,"jobs":[],"assign":[]},"budget":10,"eps":0.5}`,
		`{"solver":"ptas","instance":{"m":1,"jobs":[{"id":0,"size":1}],"assign":[0]},"eps":0.25}`,
		`  {  "solver" : "greedy" , "k" : 3 , "instance" : { "m" : 1 , "jobs" : [ ] , "assign" : [ ] } }  `,
		`{"instance":{"m":2,"jobs":[{"id":0,"size":5}],"assign":[0]},"solver":"greedy"}`, // field order
		`{"solver":"greedy","instance":{"m":2,"assign":[0],"jobs":[{"size":5,"id":0}]},"k":-1}`,
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5}],"assign":[0]},"eps":0.125}`,
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5}],"assign":[0]},"eps":123.456}`,
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":9223372036854775807}],"assign":[0]}}`,
		// The layout encoding/json writes, which the job literal path
		// reads, and each way out of it into the general loop:
		`{"solver":"mpartition","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1},{"id":1,"size":4,"cost":2}],"assign":[0,0]},"k":50}`,
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1},{"cost":2,"size":4,"id":1}],"assign":[0,1]},"k":1}`,     // keys in another order
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1},{ "id":1, "size":4,"cost":2 }],"assign":[0, 1]},"k":1}`, // whitespace inside a job
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1}, {"id":1,"size":4,"cost":2}],"assign":[0 ,1]},"k":1}`,   // whitespace between jobs
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":1000000000000000000,"cost":1}],"assign":[0]}}`,                      // 19-digit size
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":9223372036854775808,"cost":1}],"assign":[0]}}`,                      // 19 digits, past int64
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":10000000000000000000,"cost":1}],"assign":[0]}}`,                     // 20-digit size
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":-0,"cost":1}],"assign":[0]}}`,                                       // -0
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":01,"cost":1}],"assign":[0]}}`,                                       // leading zero
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1,"w":2}],"assign":[0]}}`,                                  // extra key
		`{"solver":"greedy","instance":{"m":2,"jobs":[{"id":0,"size":5,"cost":1}],"assign":[-1]}}`,                                       // a negative processor
		`{"solver":"mpartition","instance":{"m":2,"jobs":[],"assign":[]},"k":50}`,                                                        // empty jobs
		// Shapes the fast decoder must hand to the slow path:
		`{"solver":"gre\u0065dy","instance":{"m":1,"jobs":[],"assign":[]}}`,                     // escaped string
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[]},"eps":1e-3}`,               // exponent
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[]},"eps":0.1234567890123456}`, // >15 digits
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[]},"ks":[1,2]}`,               // batch-only field
		`{"solver":"greedy","solver":"ptas","instance":{"m":1,"jobs":[],"assign":[]}}`,          // duplicate key
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[]}}extra`,                     // trailing data
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[],"allowed":[[0]]}}`,          // extension field
		`{"solver":"greedy","instance":{"m":01,"jobs":[],"assign":[]}}`,                         // leading zero
		`{"k":1}`, // no solver
		`{`,       // malformed
		``,        // empty
		`null`,    // not an object
		`{"solver":"greedy","instance":{"m":1,"jobs":[],"assign":[]},"k":1.5}`, // non-integer k
	}
}
