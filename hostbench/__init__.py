"""hostbench: whole-stack host-throughput benchmark of the reproduction.

Four workloads (Table I, the Figure 4 DFT, JPEG decode under the
Linux model, an 8-OCP scheduler stream) run through public ``repro``
APIs in fresh child processes; a separate traced child splits host
time by layer.  See ``hostbench/README.md``.
"""
