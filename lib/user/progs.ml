(** Sample bytecode enclave programs.

    Small programs in the modelled instruction set, used by the
    quickstart example and the execution tests. Each is a structured
    program ([Insn.stmt list]) ready for {!Uprog.code_words}. *)

module Insn = Komodo_machine.Insn
module Word = Komodo_machine.Word
open Uprog

(** Return [a1 + a2 + a3] (entry arguments arrive in r0-r2). *)
let add_args : Insn.stmt list =
  [
    Insn.I (Insn.Add (r3, r0, reg r1));
    Insn.I (Insn.Add (r3, r3, reg r2));
  ]
  @ exit_with r3

(** Sum the integers 1..r0 by looping. *)
let sum_to_n : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r3, imm 0)) (* acc *);
    Insn.I (Insn.Mov (r4, imm 1)) (* i *);
    Insn.I (Insn.Cmp (r4, reg r0));
    Insn.While
      ( Insn.LS,
        [
          Insn.I (Insn.Add (r3, r3, reg r4));
          Insn.I (Insn.Add (r4, r4, imm 1));
          Insn.I (Insn.Cmp (r4, reg r0));
        ] );
  ]
  @ exit_with r3

(** Store r1 at the virtual address in r0, read it back, exit with it. *)
let store_load : Insn.stmt list =
  [
    Insn.I (Insn.Str (r1, r0, imm 0));
    Insn.I (Insn.Ldr (r5, r0, imm 0));
  ]
  @ exit_with r5

(** Compute a simple checksum (sum of words) over [r1] words at VA [r0];
    exits with the checksum. Demonstrates reading a mapped insecure
    buffer from inside an enclave. *)
let checksum : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r3, imm 0)) (* acc *);
    Insn.I (Insn.Mov (r4, imm 0)) (* index *);
    Insn.I (Insn.Cmp (r4, reg r1));
    Insn.While
      ( Insn.CC,
        [
          Insn.I (Insn.Lsl (r5, r4, imm 2));
          Insn.I (Insn.Add (r5, r5, reg r0));
          Insn.I (Insn.Ldr (r6, r5, imm 0));
          Insn.I (Insn.Add (r3, r3, reg r6));
          Insn.I (Insn.Add (r4, r4, imm 1));
          Insn.I (Insn.Cmp (r4, reg r1));
        ] );
  ]
  @ exit_with r3

(** Issue one SVC — call number arriving in entry r0, arguments in
    r1/r2 — then exit with the SVC's r0 error code. The refinement
    checker's probe enclave: every SVC's error semantics become
    observable (and predictable) at the SMC boundary, as the Enter
    return value. *)
let svc_probe : Insn.stmt list =
  [ Insn.I (Insn.Svc Word.zero) ] @ exit_with r0

(** Ask the monitor for a random word, exit with it. *)
let random_word : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r0, imm Svc_nums.get_random));
    Insn.I (Insn.Svc Word.zero);
    (* Result arrives in r1 with the error code in r0. *)
  ]
  @ exit_with r1

(** Attest to the 32 bytes of zeroes in r1-r8, exit with the first MAC
    word — a minimal in-bytecode use of the attestation SVC. *)
let attest_zero : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r1, imm 0));
    Insn.I (Insn.Mov (r2, imm 0));
    Insn.I (Insn.Mov (r3, imm 0));
    Insn.I (Insn.Mov (r4, imm 0));
    Insn.I (Insn.Mov (r5, imm 0));
    Insn.I (Insn.Mov (r6, imm 0));
    Insn.I (Insn.Mov (r7, imm 0));
    Insn.I (Insn.Mov (r8, imm 0));
    Insn.I (Insn.Mov (r0, imm Svc_nums.attest));
    Insn.I (Insn.Svc Word.zero);
  ]
  @ exit_with r1

(** Deliberately dereference an unmapped address: exercises the
    fault-exit path (the OS sees only [Fault]). *)
let fault_unmapped : Insn.stmt list =
  [ Insn.I (Insn.Ldr (r0, r0, imm 0x0FFF_F000)) ] @ exit_with r0

(** Deliberately execute an undefined instruction. *)
let fault_undefined : Insn.stmt list = [ Insn.I Insn.Udf ] @ exit_with r0

(** Spin forever; only an interrupt ends it (exercises suspend/resume). *)
let spin_forever : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r3, imm 0));
    Insn.While (Insn.AL, [ Insn.I (Insn.Add (r3, r3, imm 1)) ]);
  ]

(** Write r1 to the insecure shared page mapped at VA r0, then exit 0 —
    the explicit (and only) way an enclave publishes data to the OS. *)
let publish_to_shared : Insn.stmt list =
  [
    Insn.I (Insn.Str (r1, r0, imm 0));
    Insn.I (Insn.Mov (r4, imm 0));
  ]
  @ exit_with r4

(** Dynamic memory demo: turn the spare page named in r0 into a data
    page mapped read-write at the VA in r1 (via the MapData SVC), store
    a sentinel there, and exit with the sentinel read back. *)
let map_and_use_spare : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r12, reg r1)) (* stash target VA *);
    Insn.I (Insn.Mov (r1, reg r0)) (* spare page nr *);
    Insn.I (Insn.Orr (r2, r12, imm 0x3)) (* mapping word: va | RW *);
    Insn.I (Insn.Mov (r0, imm Svc_nums.map_data));
    Insn.I (Insn.Svc Word.zero);
    (* r0 = error code; bail out with 0xdead on failure. *)
    Insn.I (Insn.Cmp (r0, imm 0));
    Insn.If
      ( Insn.NE,
        [ Insn.I (Insn.Mov (r6, imm 0xDEAD)) ],
        [
          Insn.I (Insn.Mov (r5, imm 0xBEEF));
          Insn.I (Insn.Str (r5, r12, imm 0));
          Insn.I (Insn.Ldr (r6, r12, imm 0));
        ] );
  ]
  @ exit_with r6

(* -- Dispatcher-interface programs (paper §9.2, implemented) ----------- *)

(** The self-paging main program. Entry args: r0 = spare page number,
    r1 = dispatcher entry VA. It registers the dispatcher, stashes the
    spare page number at VA 0x1000 for the dispatcher's use, touches the
    deliberately-unmapped page at 0x6000 (faulting into the dispatcher,
    which maps it), then stores and reloads a sentinel there. *)
let self_paging_main : Insn.stmt list =
  [
    (* Stash the spare page number where the dispatcher can find it. *)
    Insn.I (Insn.Mov (r11, imm 0x1000));
    Insn.I (Insn.Str (r0, r11, imm 0));
    (* SetDispatcher(r1). *)
    Insn.I (Insn.Mov (r0, imm Svc_nums.set_dispatcher));
    Insn.I (Insn.Svc Word.zero);
    (* Touch the unmapped page: faults, dispatcher maps it, retry runs. *)
    Insn.I (Insn.Mov (r10, imm 0x6000));
    Insn.I (Insn.Ldr (r5, r10, imm 0)) (* 0 after zero-fill *);
    Insn.I (Insn.Mov (r6, imm 0xD15E));
    Insn.I (Insn.Str (r6, r10, imm 0));
    Insn.I (Insn.Ldr (r7, r10, imm 0));
    (* Exit with sentinel + first-read value (must be 0xD15E + 0). *)
    Insn.I (Insn.Add (r7, r7, Insn.Reg r5));
  ]
  @ exit_with r7

(** The dispatcher: upcalled with r0 = fault class, r1 = faulting
    address. Demand-maps the enclave's stashed spare page at the
    faulting page and resumes the faulting instruction. *)
let self_paging_dispatcher : Insn.stmt list =
  [
    (* mapping word = page(FAR) | RW *)
    Insn.I (Insn.Lsr (r2, r1, imm 12));
    Insn.I (Insn.Lsl (r2, r2, imm 12));
    Insn.I (Insn.Orr (r2, r2, imm 0x3));
    (* spare page number from the stash at 0x1000 *)
    Insn.I (Insn.Mov (r11, imm 0x1000));
    Insn.I (Insn.Ldr (r1, r11, imm 0));
    Insn.I (Insn.Mov (r0, imm Svc_nums.map_data));
    Insn.I (Insn.Svc Word.zero);
    (* Resume the faulting access (retries the load/store). *)
    Insn.I (Insn.Mov (r0, imm Svc_nums.resume_faulted));
    Insn.I (Insn.Svc Word.zero);
  ]

(** A dispatcher that handles nothing and just resumes: the access
    faults again, and the double fault is reported to the OS. *)
let futile_dispatcher : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r0, imm Svc_nums.resume_faulted));
    Insn.I (Insn.Svc Word.zero);
  ]

(* -- Demand paging with eviction (the full §9.2 self-paging vision) ----
   A working set of four virtual pages backed by a single physical
   spare page. Every touch of a non-resident page faults into the
   dispatcher, which evicts the resident page — XOR-"encrypting" it
   into an insecure swap window so the OS sees only ciphertext — then
   maps the spare at the faulting address and decrypts any previously
   evicted contents back in. The OS observes no faults at all, only
   the enclave's MapData/UnmapData allocation pattern (§6.2's
   declassified channel).

   Enclave layout: main code at 0, dispatcher at [selfpager_disp_va];
   bookkeeping page at 0x1000 ([0] spare page nr, [4] resident va,
   [8] evicted bitmap); 4-page insecure swap window at 0x20000; the
   virtual heap at 0x10000..0x13fff. *)

let selfpager_disp_va = 0x4000
let selfpager_book = 0x1000
let selfpager_swap = 0x20_000
let selfpager_heap = 0x10_000

(** The demo "cipher" key. A real self-pager would use an authenticated
    cipher keyed from GetRandom; the XOR stream demonstrates where it
    slots in while keeping the bytecode readable. *)
let selfpager_key = 0x5EC2_2E75

(* Copy 1024 words from the page at [src] to the page at [dst], XORing
   each word with the key in r4. Clobbers r5, r6, r7. *)
let xor_copy_page ~src ~dst : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r5, imm 0));
    Insn.I (Insn.Cmp (r5, imm 4096));
    Insn.While
      ( Insn.CC,
        [
          Insn.I (Insn.Add (r6, src, reg r5));
          Insn.I (Insn.Ldr (r7, r6, imm 0));
          Insn.I (Insn.Eor (r7, r7, reg r4));
          Insn.I (Insn.Add (r6, dst, reg r5));
          Insn.I (Insn.Str (r7, r6, imm 0));
          Insn.I (Insn.Add (r5, r5, imm 4));
          Insn.I (Insn.Cmp (r5, imm 4096));
        ] );
  ]

(* r6 := swap-slot VA for the heap page in [page_va]; clobbers r6. *)
let swap_slot_of ~page_va : Insn.stmt list =
  [
    Insn.I (Insn.Sub (r6, page_va, imm selfpager_heap));
    Insn.I (Insn.Add (r6, r6, imm selfpager_swap));
  ]

(** The paging dispatcher. Upcalled with r0 = fault class, r1 = FAR.
    All of main's registers are parked in the fault context, so the
    dispatcher may clobber freely; ResumeFaulted restores them. *)
let selfpager_dispatcher : Insn.stmt list =
  [
    (* r12 = faulting page VA; r9 = bookkeeping base; r4 = cipher key. *)
    Insn.I (Insn.Lsr (r12, r1, imm 12));
    Insn.I (Insn.Lsl (r12, r12, imm 12));
    Insn.I (Insn.Mov (r9, imm selfpager_book));
    Insn.I (Insn.Mov (r4, imm selfpager_key));
    (* Evict the resident page, if any. *)
    Insn.I (Insn.Ldr (r11, r9, imm 4));
    Insn.I (Insn.Cmp (r11, imm 0));
    Insn.If
      ( Insn.NE,
        swap_slot_of ~page_va:r11
        @ [ Insn.I (Insn.Mov (r10, reg r6)) ]
        @ xor_copy_page ~src:r11 ~dst:r10
        @ [
            (* Mark it evicted: bitmap |= 1 << page-index. *)
            Insn.I (Insn.Sub (r6, r11, imm selfpager_heap));
            Insn.I (Insn.Lsr (r6, r6, imm 12));
            Insn.I (Insn.Mov (r7, imm 1));
            Insn.I (Insn.Lsl (r7, r7, reg r6));
            Insn.I (Insn.Ldr (r6, r9, imm 8));
            Insn.I (Insn.Orr (r6, r6, reg r7));
            Insn.I (Insn.Str (r6, r9, imm 8));
            (* UnmapData(spare, resident | R): the frame is free again. *)
            Insn.I (Insn.Ldr (r1, r9, imm 0));
            Insn.I (Insn.Orr (r2, r11, imm 1));
            Insn.I (Insn.Mov (r0, imm Svc_nums.unmap_data));
            Insn.I (Insn.Svc Word.zero);
          ],
        [] );
    (* Map the spare at the faulting page (zero-filled by the monitor). *)
    Insn.I (Insn.Ldr (r1, r9, imm 0));
    Insn.I (Insn.Orr (r2, r12, imm 3));
    Insn.I (Insn.Mov (r0, imm Svc_nums.map_data));
    Insn.I (Insn.Svc Word.zero);
    (* If this page was evicted before, decrypt it back in. *)
    Insn.I (Insn.Sub (r6, r12, imm selfpager_heap));
    Insn.I (Insn.Lsr (r6, r6, imm 12));
    Insn.I (Insn.Mov (r7, imm 1));
    Insn.I (Insn.Lsl (r7, r7, reg r6));
    Insn.I (Insn.Ldr (r6, r9, imm 8));
    Insn.I (Insn.Tst (r6, reg r7));
    Insn.If
      ( Insn.NE,
        swap_slot_of ~page_va:r12
        @ [ Insn.I (Insn.Mov (r10, reg r6)) ]
        @ xor_copy_page ~src:r10 ~dst:r12,
        [] );
    (* Book-keep the new resident and retry the faulting access. *)
    Insn.I (Insn.Str (r12, r9, imm 4));
    Insn.I (Insn.Mov (r0, imm Svc_nums.resume_faulted));
    Insn.I (Insn.Svc Word.zero);
  ]

(** The self-paging main program. Entry arg r0 = spare page number.
    Writes a distinct value into each of four virtual pages (working
    set 4x the physical memory), then reads them all back and exits
    with the sum — correct only if every eviction round-trip preserved
    the data. Expected exit: 0xA0+0xA1+0xA2+0xA3 = 0x286. *)
let selfpager_main : Insn.stmt list =
  [
    (* Stash the spare page number; register the dispatcher. *)
    Insn.I (Insn.Mov (r11, imm selfpager_book));
    Insn.I (Insn.Str (r0, r11, imm 0));
    Insn.I (Insn.Mov (r1, imm selfpager_disp_va));
    Insn.I (Insn.Mov (r0, imm Svc_nums.set_dispatcher));
    Insn.I (Insn.Svc Word.zero);
    (* Write phase: page i gets value 0xA0 + i. *)
    Insn.I (Insn.Mov (r8, imm 0));
    Insn.I (Insn.Cmp (r8, imm 4));
    Insn.While
      ( Insn.CC,
        [
          Insn.I (Insn.Lsl (r6, r8, imm 12));
          Insn.I (Insn.Add (r6, r6, imm selfpager_heap));
          Insn.I (Insn.Add (r7, r8, imm 0xA0));
          Insn.I (Insn.Str (r7, r6, imm 0)) (* faults when non-resident *);
          Insn.I (Insn.Add (r8, r8, imm 1));
          Insn.I (Insn.Cmp (r8, imm 4));
        ] );
    (* Read phase: sum the four values back. *)
    Insn.I (Insn.Mov (r3, imm 0));
    Insn.I (Insn.Mov (r8, imm 0));
    Insn.I (Insn.Cmp (r8, imm 4));
    Insn.While
      ( Insn.CC,
        [
          Insn.I (Insn.Lsl (r6, r8, imm 12));
          Insn.I (Insn.Add (r6, r6, imm selfpager_heap));
          Insn.I (Insn.Ldr (r7, r6, imm 0)) (* faults when non-resident *);
          Insn.I (Insn.Add (r3, r3, reg r7));
          Insn.I (Insn.Add (r8, r8, imm 1));
          Insn.I (Insn.Cmp (r8, imm 4));
        ] );
  ]
  @ exit_with r3
