"""Nothing but the harness stub :class:`~repro.plan.executor.Executor`.

An execution is recorded once, as ``obs`` spans: primitive spans carry
their ledger units (:func:`repro.mpc.cluster.prim_span`) and
``Engine.explain`` renders them (DESIGN.md section 7).
"""
