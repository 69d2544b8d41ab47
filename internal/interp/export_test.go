package interp

// RunOn is Compiled.Run on a VM the test holds, so that a test decides
// which runs execute on recycled state instead of leaving it to the pool
// (which may drop VMs, and does under the race detector).
func (c *Compiled) RunOn(vm *VM, conf Config) Result { return c.runOn(vm, conf) }
