module System = Baselines.System

type t = { name : string; machine : Nvm.Machine.t; system : System.t }

let pool_capacity = 1 lsl 18

let create ?string_keys kind =
  let machine = Nvm.Machine.create ~numa_count:1 () in
  {
    name = System.name kind;
    machine;
    system =
      System.make machine ?string_keys ~data_capacity:pool_capacity
        ~search_capacity:pool_capacity kind;
  }
