// The benchmark is a module of its own so that building it never touches
// the root module's build; it reaches the program under test through the
// replace below (the import paths stay under repro/, so internal packages
// remain importable).
module repro/bench

go 1.24.0

require repro v0.0.0

replace repro => ../
