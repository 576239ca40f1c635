(* Word-based bit sets: 63 usable bits per OCaml immediate int.  The
   word layout makes set-algebra kernels (intersection, union,
   difference) run a machine word at a time, and lets [iter]/[to_array]
   skip empty regions of sparse sets instead of probing every bit. *)

let bits_per_word = 63

type t = {
  words : int array;
  n : int;
  mutable card : int;
}

let n_words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (n_words_for n) 0; n; card = 0 }

let capacity t = t.n
let n_words t = Array.length t.words

(* SWAR popcount over a 63-bit value.  The classic 64-bit constants
   exceed [max_int] as literals, so each mask is assembled from two
   32-bit halves (the bit patterns have period 1/2/4/8, all of which
   divide 32, so the halves join seamlessly). *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = (0x33333333 lsl 32) lor 0x33333333
let m4 = (0x0f0f0f0f lsl 32) lor 0x0f0f0f0f
let h01 = (0x01010101 lsl 32) lor 0x01010101

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

(* Bits of the last word that lie within capacity; -1 is all-ones. *)
let tail_mask n =
  let r = n - (n_words_for n - 1) * bits_per_word in
  if r >= bits_per_word then -1 else (1 lsl r) - 1

let unsafe_mem t i =
  let q = i / bits_per_word in
  Array.unsafe_get t.words q land (1 lsl (i - (q * bits_per_word))) <> 0

let unsafe_add t i =
  let q = i / bits_per_word in
  let bit = 1 lsl (i - (q * bits_per_word)) in
  let w = Array.unsafe_get t.words q in
  if w land bit = 0 then begin
    Array.unsafe_set t.words q (w lor bit);
    t.card <- t.card + 1
  end

let unsafe_remove t i =
  let q = i / bits_per_word in
  let bit = 1 lsl (i - (q * bits_per_word)) in
  let w = Array.unsafe_get t.words q in
  if w land bit <> 0 then begin
    Array.unsafe_set t.words q (w land lnot bit);
    t.card <- t.card - 1
  end

let check_index t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check_index t i;
  unsafe_mem t i

let add t i =
  check_index t i;
  unsafe_add t i

let remove t i =
  check_index t i;
  unsafe_remove t i

let cardinal t = t.card
let is_empty t = t.card = 0

let get_word t wi = Array.unsafe_get t.words wi

(* Number of trailing zeros of a power of two. *)
let ntz_pow2 b = popcount (b - 1)

let iter t f =
  let nw = Array.length t.words in
  for wi = 0 to nw - 1 do
    let x = ref (Array.unsafe_get t.words wi) in
    if !x <> 0 then begin
      let base = wi * bits_per_word in
      while !x <> 0 do
        let b = !x land - !x in
        f (base + ntz_pow2 b);
        x := !x land (!x - 1)
      done
    end
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun i -> acc := f !acc i);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc i -> i :: acc))

let to_array t =
  let out = Array.make t.card 0 in
  let j = ref 0 in
  iter t (fun i ->
      Array.unsafe_set out !j i;
      incr j);
  out

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let of_array n a =
  let t = create n in
  Array.iter (add t) a;
  t

let copy t = { words = Array.copy t.words; n = t.n; card = t.card }

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Bitset." ^ op ^ ": capacity mismatch")

(* Destination-passing kernels.  [into] may alias [a] or [b]; all three
   must share a capacity.  Each recomputes [into.card] via popcount as
   it streams, so the O(1) [cardinal] invariant survives. *)

let inter_into ~into a b =
  same_capacity a b "inter_into";
  same_capacity into a "inter_into";
  let card = ref 0 in
  for wi = 0 to Array.length into.words - 1 do
    let w = Array.unsafe_get a.words wi land Array.unsafe_get b.words wi in
    Array.unsafe_set into.words wi w;
    card := !card + popcount w
  done;
  into.card <- !card

let union_into ~into a b =
  same_capacity a b "union_into";
  same_capacity into a "union_into";
  let card = ref 0 in
  for wi = 0 to Array.length into.words - 1 do
    let w = Array.unsafe_get a.words wi lor Array.unsafe_get b.words wi in
    Array.unsafe_set into.words wi w;
    card := !card + popcount w
  done;
  into.card <- !card

let diff_into ~into a b =
  same_capacity a b "diff_into";
  same_capacity into a "diff_into";
  let card = ref 0 in
  for wi = 0 to Array.length into.words - 1 do
    let w = Array.unsafe_get a.words wi land lnot (Array.unsafe_get b.words wi) in
    Array.unsafe_set into.words wi w;
    card := !card + popcount w
  done;
  into.card <- !card

let inter_exists a b =
  same_capacity a b "inter_exists";
  let nw = Array.length a.words in
  let wi = ref 0 in
  let found = ref false in
  while (not !found) && !wi < nw do
    if Array.unsafe_get a.words !wi land Array.unsafe_get b.words !wi <> 0
    then found := true;
    incr wi
  done;
  !found

let inter_card a b =
  same_capacity a b "inter_card";
  let c = ref 0 in
  for wi = 0 to Array.length a.words - 1 do
    c := !c + popcount (Array.unsafe_get a.words wi land Array.unsafe_get b.words wi)
  done;
  !c

let last_word_mask t = tail_mask t.n
