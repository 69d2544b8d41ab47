package interp

// RunOn is Compiled.Run on a VM the test holds, so that a test decides
// which runs execute on recycled state instead of leaving it to the pool
// (which may drop VMs, and does under the race detector).
func (c *Compiled) RunOn(vm *VM, conf Config) Result { return c.runOn(vm, conf) }

// RunHandovers is Run on a new VM of c, and how many times exec's fast
// loop handed over to its exact loop during the run.
func (c *Compiled) RunHandovers(conf Config) (Result, uint64) {
	vm := c.NewVM(conf)
	res := vm.Run()
	return res, vm.handovers
}

// FusedOps lists the superinstructions by their Result.OpCounts names.
func FusedOps() []string {
	var names []string
	for op := opBadTerm + 1; op < nOpcodes; op++ {
		names = append(names, op.String())
	}
	return names
}
