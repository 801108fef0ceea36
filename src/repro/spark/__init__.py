"""PySpark dataflow layer.

The paper's contribution is a search algorithm, not a planner rule, so
(per DESIGN.md's layering note) it is expressed here as
``DataFrame -> DataFrame`` transformations:

- ``cellify``: the reduced-rectangle -> candidate-cell explosion (the
  geo-partitioning of the scan);
- ``summaries``: the grid index's attribute summary tables: one metadata
  ``agg`` job, then one ``mapInPandas`` pass that runs the core
  channelisation and returns per-cell totals, suffix-summed in NumPy on
  the driver;
- ``search``: the distributed GI-DS scan — candidate index cells are
  pruned with driver-side lower bounds, then hash-partitioned over every
  core and searched with the DS-Search kernel inside ``mapInPandas``
  tasks. Each search measures its own GPS accuracy; a task-local gap is
  never below the global one, so the answer stays exact.
"""
