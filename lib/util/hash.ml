type t = int64

let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let add_char h c = add_byte h (Char.code c)

(* A loop over the bytes, so the running hash stays an unboxed int64
   and hashing allocates nothing. *)
let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  (* length separator: add_string h "ab" + "c" <> add_string h "a" + "bc" *)
  add_byte (add_byte !h (String.length s land 0xff)) 0x1f

let add_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h ((i lsr (shift * 8)) land 0xff)
  done;
  !h

let string s = add_string init s

let to_hex h = Printf.sprintf "%016Lx" h
