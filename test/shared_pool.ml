(* The task pool of every test that does not pin its own, sized by
   HOLIWIN_DOMAINS through the engine's one parse of it, so the CI legs
   that set the variable run these tests on that many domains. *)
module Task_pool = Holistic_parallel.Task_pool

let pool = Task_pool.create (Task_pool.domains_of_setting (Sys.getenv_opt "HOLIWIN_DOMAINS"))
