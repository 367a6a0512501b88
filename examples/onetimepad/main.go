// One-time pad expenditure: the Di Crescenzo–Kiayias application the
// paper cites ([11]): multiple communicating parties share a pre-agreed
// random pad, and perfect secrecy holds ONLY if every pad page is used to
// encrypt at most one message. Concurrent senders therefore need
// at-most-once semantics on pad pages.
//
// Here m sender threads drain a queue of messages, each encrypting with
// the pad page the at-most-once layer hands them (the "job" is the page
// index). A page used twice would let an eavesdropper XOR the two
// ciphertexts and cancel the key — the demo checks no page is ever
// reused.
//
// Run with: go run ./examples/onetimepad
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"atmostonce"
)

const (
	pages   = 512 // pad pages, one message each
	senders = 4
	pageLen = 32 // bytes per page
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "onetimepad:", err)
		os.Exit(1)
	}
}

func run() error {
	// The shared pad: pages of random key material, agreed in advance.
	rng := rand.New(rand.NewSource(11))
	pad := make([][]byte, pages+1)
	for i := range pad {
		pad[i] = make([]byte, pageLen)
		rng.Read(pad[i])
	}

	var (
		mu          sync.Mutex
		ciphertexts = make(map[int][]byte) // page -> ciphertext
		used        = make(map[int]int)    // page -> use count
	)

	summary, err := atmostonce.Run(
		atmostonce.Config{Jobs: pages, Workers: senders},
		func(sender, page int) {
			// Encrypt one message with this page. The page index IS the
			// at-most-once job: the library guarantees no other sender
			// spends the same key material.
			msg := fmt.Sprintf("sender %d message on page %d padding padding", sender, page)
			ct := xor(pad[page], []byte(msg))
			mu.Lock()
			ciphertexts[page] = ct
			used[page]++
			mu.Unlock()
		},
	)
	if err != nil {
		return err
	}

	reused := 0
	for _, c := range used {
		if c > 1 {
			reused++
		}
	}
	fmt.Printf("messages encrypted:  %d\n", len(ciphertexts))
	fmt.Printf("pad pages unspent:   %d (usable next session)\n", summary.Remaining)
	fmt.Printf("pad pages reused:    %d\n", reused)
	if reused > 0 {
		return fmt.Errorf("SECRECY VIOLATION: pad page reused — ciphertext XOR leaks plaintext")
	}
	fmt.Println("perfect secrecy preserved: every pad page spent at most once")
	return nil
}

// xor combines key material with a message (truncating to the shorter).
func xor(key, msg []byte) []byte {
	n := len(key)
	if len(msg) < n {
		n = len(msg)
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = key[i] ^ msg[i]
	}
	return out
}
