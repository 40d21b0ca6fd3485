package main

// Example pins the quickstart's stdout: the world, the injected fault, the
// passive verdicts on its paths and the active phase's culprit votes.
func Example() {
	main()
	// Output:
	// world: 14 cloud locations, 187 ASes, 1163 client /24s
	// injected: +80ms in Europe-Transit-1 for 120 minutes
	//
	// passive verdicts for quartets on affected paths during the fault:
	//   cloud         0
	//   middle        542
	//   client        0
	//   ambiguous     0
	//   insufficient  340
	//
	// active-phase culprit votes for the affected issues:
	//   AS2100    19  <= the injected fault
}
