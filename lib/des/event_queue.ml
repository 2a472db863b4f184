(* Binary min-heap in a growable array.  Entries carry a sequence
   number so that events scheduled at the same instant are delivered in
   insertion order, which makes simulation runs deterministic. *)

type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && earlier q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && earlier q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let grow q entry =
  let capacity = Array.length q.heap in
  if q.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let heap = Array.make new_capacity entry in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let add q ~time value =
  let entry = { time; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q entry;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop_min q =
  if q.size = 0 then raise Not_found;
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  (top.time, top.value)

