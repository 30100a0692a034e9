type entry = { g_seg : int; g_off : int; g_len : int }

let entry_bytes = 16

type t = {
  mutable entries : entry array;
  mutable len : int;
  mutable marker : int option;
}

let create () = { entries = [||]; len = 0; marker = None }

let append t ~seg ~off ~len =
  let e = { g_seg = seg; g_off = off; g_len = len } in
  if t.len = Array.length t.entries then begin
    let cap = if t.len = 0 then 64 else t.len * 2 in
    let arr = Array.make cap e in
    Array.blit t.entries 0 arr 0 t.len;
    t.entries <- arr
  end;
  t.entries.(t.len) <- e;
  t.len <- t.len + 1

let count t = t.len

let total_bytes t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + t.entries.(i).g_len
  done;
  !acc

let set_marker t = t.marker <- Some t.len

let iter_before_marker t f =
  match t.marker with
  | None -> invalid_arg "Garbage.iter_before_marker: no marker set"
  | Some m ->
      for i = 0 to m - 1 do
        f t.entries.(i)
      done

let truncate_to_marker t ~keep =
  match t.marker with
  | None -> invalid_arg "Garbage.truncate_to_marker: no marker set"
  | Some m ->
      let a = t.entries in
      let kept = ref 0 in
      for i = 0 to m - 1 do
        let e = a.(i) in
        if keep e.g_seg then begin
          a.(!kept) <- e;
          incr kept
        end
      done;
      (* Shift the kept entries up past the ones appended since the
         marker, which then move to the front. *)
      let kept = !kept and fresh = Array.sub a m (t.len - m) in
      Array.blit a 0 a (Array.length fresh) kept;
      Array.blit fresh 0 a 0 (Array.length fresh);
      t.len <- kept + Array.length fresh;
      t.marker <- None

let file_bytes t = t.len * entry_bytes
