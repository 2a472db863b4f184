(* Pools are held weakly: the registry must not keep the (large) pool
   images of discarded machines alive — benchmark suites create
   hundreds of machines per process.  Pool ids are dense and
   process-global, so both tables are indexed by id and grow by
   doubling; [known] tells a collected pool from an id never
   registered. *)
let pools : Nvm.Pool.t Weak.t ref = ref (Weak.create 256)

let known = ref (Bytes.make 256 '\000')

let register pool =
  let id = Nvm.Pool.id pool in
  let n = Weak.length !pools in
  if id >= n then begin
    let n' = max (2 * n) (id + 1) in
    let w = Weak.create n' in
    Weak.blit !pools 0 w 0 n;
    pools := w;
    known := Bytes.extend !known 0 (n' - n);
    Bytes.fill !known n (n' - n) '\000'
  end;
  Weak.set !pools id (Some pool);
  Bytes.set !known id '\001'

let find id =
  if id < 0 || id >= Bytes.length !known || Bytes.get !known id = '\000' then
    invalid_arg (Printf.sprintf "Registry.find: unknown pool id %d" id)
  else
    match Weak.get !pools id with
    | Some pool -> pool
    | None -> invalid_arg (Printf.sprintf "Registry.find: pool id %d no longer live" id)

let resolve p = find (Pptr.pool p)
