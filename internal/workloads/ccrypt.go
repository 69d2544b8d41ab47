package workloads

import (
	"math/rand"
	"strconv"

	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/rng"
)

// CcryptSource is the §3.2 case study: a file-encryption tool that asks
// for confirmation before overwriting an existing file. Exactly like
// ccrypt 1.2, the prompt loop assumes the line reader returns a non-null
// buffer and inspects its contents immediately — so end-of-file on stdin
// crashes the program. The bug is deterministic with respect to the
// predicate "xreadline() return value == 0".
const CcryptSource = `
// ccrypt: encrypt the files named on the command line, prompting before
// overwriting existing output files (unless -f is given).
int errors = 0;
int processed = 0;
int skipped = 0;
int verbose = 0;
int key_cache = 0;

// ---- key handling -------------------------------------------------------

int hash_round(int h, int c) {
	int m = (h * 33 + c) % 65537;
	return m;
}

int derive_key(string pass) {
	int n = strlen(pass);
	if (n == 0) { return -1; }
	int h = 5381;
	for (int i = 0; i < n; i++) {
		int c = strget(pass, i);
		h = hash_round(h, c);
	}
	if (h == 0) { h = 1; }
	return h;
}

int get_key() {
	if (key_cache != 0) { return key_cache; }
	string pass = passphrase();
	int k = derive_key(pass);
	if (k < 0) { return -1; }
	key_cache = k;
	return k;
}

// ---- encryption core ----------------------------------------------------

int mix(int a, int b) {
	int x = (a * 2654435761 + b) % 1000003;
	if (x < 0) { x = -x; }
	return x;
}

int encrypt_block(int key, int block) {
	int state = mix(key, block);
	for (int round = 0; round < 4; round++) {
		state = mix(state, round * 41 + 7);
	}
	return state;
}

int process_payload(string name, int key) {
	int size = payload_size(name);
	if (size < 0) { return -1; }
	int checksum = 0;
	for (int b = 0; b < size; b++) {
		int block = hash_round(b, strlen(name));
		int enc = encrypt_block(key, block);
		checksum = (checksum + enc) % 1000003;
	}
	return checksum;
}

int check_name(string name) {
	int n = strlen(name);
	if (n <= 0) { return -1; }
	if (n > 200) { return -1; }
	return n;
}

int classify_response(int c) {
	if (c == 'y') { return 1; }
	if (c == 'n') { return 0; }
	return -1;
}

int prompt_overwrite(string name) {
	print("overwrite ", name, "? ");
	int tries = 0;
	while (tries < 5) {
		int* response = xreadline();
		// BUG (ccrypt 1.2): no check for EOF. xreadline() returns null
		// when standard input is exhausted, and the next line dies.
		int c = response[0];
		int verdict = classify_response(c);
		if (verdict >= 0) { return verdict; }
		tries++;
	}
	return 0;
}

int try_encrypt(string name) {
	int len = check_name(name);
	if (len < 0) { return -1; }
	int exists = file_exists(name);
	if (exists > 0) {
		int force = flag_force();
		if (force == 0) {
			int ok = prompt_overwrite(name);
			if (ok == 0) {
				skipped++;
				return 0;
			}
		}
		int removed = remove_file(name);
		if (removed < 0) {
			errors++;
			return -2;
		}
	}
	int key = get_key();
	if (key < 0) {
		errors++;
		return -4;
	}
	int written = write_file(name);
	if (written < 0) {
		errors++;
		return -3;
	}
	int checksum = process_payload(name, key);
	if (checksum < 0) {
		errors++;
		return -5;
	}
	processed++;
	return 1;
}

int parse_flags() {
	int n = num_flags();
	for (int i = 0; i < n; i++) {
		int f = flag_at(i);
		if (f == 'v') { verbose = 1; }
		if (f == 'q') { verbose = 0; }
	}
	return n;
}

int main() {
	int nf = parse_flags();
	if (nf < 0) { return 3; }
	int n = num_files();
	for (int i = 0; i < n; i++) {
		string name = file_name(i);
		int r = try_encrypt(name);
		if (r < 0) {
			print("ccrypt: error processing ", name, "\n");
		}
		if (r > 0 && verbose > 0) {
			print("ccrypt: wrote ", name, "\n");
		}
	}
	if (errors > 0) { return 1; }
	return 0;
}
`

// CcryptBuiltins returns the builtin signatures for the ccrypt program's
// virtual environment.
func CcryptBuiltins() map[string]minic.BuiltinSig {
	b := minic.DefaultBuiltins()
	b["file_exists"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.IntType}
	b["remove_file"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.IntType}
	b["write_file"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.IntType}
	b["xreadline"] = minic.BuiltinSig{MinArgs: 0, MaxArgs: 0, Ret: minic.PtrTo(minic.IntType)}
	b["num_files"] = minic.BuiltinSig{MinArgs: 0, MaxArgs: 0, Ret: minic.IntType}
	b["file_name"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.StrType}
	b["flag_force"] = minic.BuiltinSig{MinArgs: 0, MaxArgs: 0, Ret: minic.IntType}
	b["passphrase"] = minic.BuiltinSig{MinArgs: 0, MaxArgs: 0, Ret: minic.StrType}
	b["payload_size"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.IntType}
	b["num_flags"] = minic.BuiltinSig{MinArgs: 0, MaxArgs: 0, Ret: minic.IntType}
	b["flag_at"] = minic.BuiltinSig{MinArgs: 1, MaxArgs: 1, Ret: minic.IntType}
	return b
}

// CcryptWorld is one fuzzed execution environment, in the spirit of the
// paper's Fuzz-style trial generation (§3.2.3): a randomly selected set
// of present or absent files, randomized flags, and randomized prompt
// responses including the occasional EOF.
type CcryptWorld struct {
	rng    *rand.Rand
	exists map[string]bool
	files  int
	force  bool

	// Tunables (probabilities in percent).
	PExists  int // chance a named output file already exists
	PForce   int // chance the -f flag is set
	PEOF     int // chance a prompt read hits end-of-file
	PYes     int // chance of a "y" response
	PNo      int // chance of an "n" response (remainder: garbage)
	PIOError int // chance remove/write fails
}

// NewCcryptWorld creates a world for one run.
func NewCcryptWorld(seed int64) *CcryptWorld {
	w := &CcryptWorld{
		exists:   map[string]bool{},
		PExists:  40,
		PForce:   10,
		PEOF:     4,
		PYes:     45,
		PNo:      35,
		PIOError: 2,
	}
	w.Reset(seed)
	return w
}

// Reset turns w, in place, into the world of another run: the same draws
// in the same order as NewCcryptWorld(seed), with the tunables kept. A
// harness that makes many runs keeps one world and one Intrinsics map
// (whose closures see the reset state) instead of building both per run.
func (w *CcryptWorld) Reset(seed int64) {
	if w.rng == nil {
		w.rng = rng.New(seed)
	} else {
		w.rng.Seed(seed)
	}
	clear(w.exists)
	w.files = 1 + w.rng.Intn(8)
	w.force = w.rng.Intn(100) < 10
}

// Intrinsics returns the host builtins backing the virtual environment.
func (w *CcryptWorld) Intrinsics() map[string]interp.Intrinsic {
	return map[string]interp.Intrinsic{
		"num_files": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			return interp.IntVal(int64(w.files)), nil
		},
		"file_name": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			return interp.StrVal("file" + strconv.FormatInt(args[0].Int(), 10) + ".cpt"), nil
		},
		"flag_force": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			if w.force {
				return interp.IntVal(1), nil
			}
			return interp.IntVal(0), nil
		},
		"file_exists": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			name := args[0].Str()
			ex, ok := w.exists[name]
			if !ok {
				ex = w.rng.Intn(100) < w.PExists
				w.exists[name] = ex
			}
			if ex {
				return interp.IntVal(1), nil
			}
			return interp.IntVal(0), nil
		},
		"remove_file": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			if w.rng.Intn(100) < w.PIOError {
				return interp.IntVal(-1), nil
			}
			w.exists[args[0].Str()] = false
			return interp.IntVal(0), nil
		},
		"write_file": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			if w.rng.Intn(100) < w.PIOError {
				return interp.IntVal(-1), nil
			}
			w.exists[args[0].Str()] = true
			return interp.IntVal(1), nil
		},
		"passphrase": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			n := 4 + w.rng.Intn(12)
			pass := make([]byte, n)
			for i := range pass {
				pass[i] = byte('a' + w.rng.Intn(26))
			}
			return interp.StrVal(string(pass)), nil
		},
		"payload_size": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			return interp.IntVal(int64(1 + w.rng.Intn(24))), nil
		},
		"num_flags": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			return interp.IntVal(int64(w.rng.Intn(3))), nil
		},
		"flag_at": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			flags := []int64{'v', 'q', 'k'}
			return interp.IntVal(flags[w.rng.Intn(len(flags))]), nil
		},
		"xreadline": func(vm *interp.VM, args []interp.Value) (interp.Value, error) {
			r := w.rng.Intn(100)
			if r < w.PEOF {
				return interp.NullVal(), nil // EOF: the fatal case
			}
			var line string
			switch {
			case r < w.PEOF+w.PYes:
				line = "y"
			case r < w.PEOF+w.PYes+w.PNo:
				line = "n"
			default:
				line = "maybe?"
			}
			// Return a C-style buffer: characters then NUL.
			return allocString(vm, line), nil
		},
	}
}

// allocString builds an int-array holding the bytes of s plus a NUL.
func allocString(vm *interp.VM, s string) interp.Value {
	v := vm.Alloc(len(s) + 1)
	data := v.Obj().Data
	for i := 0; i < len(s); i++ {
		data[i] = interp.IntVal(int64(s[i]))
	}
	data[len(s)] = interp.IntVal(0)
	return v
}
