"""Embedding-table placement: the model-parallel half of hybrid parallelism.

Industrial DLRMs partition their embedding tables across GPUs (model
parallelism) while replicating the MLPs (data parallelism). The placement
decides *where each preprocessing graph's output is consumed*, which is
exactly the data-dependency signal RAP's locality-aware mapping exploits:
a sparse feature preprocessed on the GPU that owns its table needs no
inter-GPU input communication.

Tables larger than a threshold are sharded row-wise across *all* GPUs; the
paper notes their inputs are needed everywhere, so RAP duplicates the
corresponding preprocessing graphs (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import DLRMConfig

__all__ = ["EmbeddingPlacement", "place_tables", "reshard_placement"]


@dataclass
class EmbeddingPlacement:
    """Assignment of each embedding table to one GPU (or all, if row-wise)."""

    num_gpus: int
    table_to_gpu: dict[str, int] = field(default_factory=dict)
    row_wise_tables: set[str] = field(default_factory=set)

    def gpus_for_table(self, name: str) -> list[int]:
        """GPUs holding (a shard of) the table -- the consumers of its input."""
        if name in self.row_wise_tables:
            return list(range(self.num_gpus))
        if name not in self.table_to_gpu:
            raise KeyError(f"table {name!r} is not placed")
        return [self.table_to_gpu[name]]

    def tables_on_gpu(self, gpu: int) -> list[str]:
        local = [t for t, g in self.table_to_gpu.items() if g == gpu]
        local.extend(sorted(self.row_wise_tables))
        return local

    def is_placed(self, name: str) -> bool:
        return name in self.table_to_gpu or name in self.row_wise_tables

    def lookup_bytes_per_gpu(self, config: DLRMConfig, batch_size: int) -> list[float]:
        """Per-GPU embedding lookup traffic for one batch (drives stage cost)."""
        loads = [0.0] * self.num_gpus
        for table in config.tables:
            traffic = table.lookup_bytes(batch_size)
            if table.name in self.row_wise_tables:
                share = traffic / self.num_gpus
                for g in range(self.num_gpus):
                    loads[g] += share
            else:
                loads[self.table_to_gpu[table.name]] += traffic
        return loads


def place_tables(config: DLRMConfig, num_gpus: int) -> EmbeddingPlacement:
    """Greedy size-balanced table-wise placement (TorchRec's default flavour).

    Tables are sorted by size descending and each is assigned to the GPU
    with the least accumulated bytes; tables exceeding the row-wise
    threshold are instead sharded across every GPU.
    """
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    placement = EmbeddingPlacement(num_gpus=num_gpus)
    loads = [0.0] * num_gpus
    for table in sorted(config.tables, key=lambda t: t.nbytes, reverse=True):
        if table.nbytes > config.row_wise_threshold_bytes and num_gpus > 1:
            placement.row_wise_tables.add(table.name)
            for g in range(num_gpus):
                loads[g] += table.nbytes / num_gpus
            continue
        target = loads.index(min(loads))
        placement.table_to_gpu[table.name] = target
        loads[target] += table.nbytes
    return placement


def reshard_placement(
    placement: EmbeddingPlacement, config: DLRMConfig, lost_gpu: int
) -> tuple[EmbeddingPlacement, tuple[str, ...], float]:
    """Redistribute a permanently lost GPU's tables across the survivors.

    Movement is minimal: survivors keep every table they already hold
    (re-indexed into the compacted survivor space), orphaned tables are
    placed largest-first onto the least-loaded survivor, and row-wise
    tables stay row-wise with only the dead shard re-replicated. Returns
    ``(new_placement, moved_table_names, moved_bytes)`` so the caller can
    price the redistribution in simulated wall time.
    """
    n = placement.num_gpus
    if not 0 <= lost_gpu < n:
        raise ValueError(f"lost_gpu {lost_gpu} out of range for {n} GPUs")
    if n < 2:
        raise ValueError("cannot re-shard below one GPU")
    survivors = n - 1
    remap = {g: i for i, g in enumerate(g for g in range(n) if g != lost_gpu)}
    resharded = EmbeddingPlacement(num_gpus=survivors)
    loads = [0.0] * survivors
    moved_tables: list[str] = []
    moved_bytes = 0.0
    orphans = []
    for table in config.tables:
        if table.name in placement.row_wise_tables:
            # Only the dead shard (1/n of the rows) has to be rebuilt.
            if survivors > 1:
                resharded.row_wise_tables.add(table.name)
            else:
                resharded.table_to_gpu[table.name] = 0
            for g in range(survivors):
                loads[g] += table.nbytes / survivors
            moved_tables.append(table.name)
            moved_bytes += table.nbytes / n
        elif placement.table_to_gpu.get(table.name, -1) == lost_gpu:
            orphans.append(table)
        elif table.name in placement.table_to_gpu:
            target = remap[placement.table_to_gpu[table.name]]
            resharded.table_to_gpu[table.name] = target
            loads[target] += table.nbytes
    for table in sorted(orphans, key=lambda t: (-t.nbytes, t.name)):
        target = loads.index(min(loads))
        resharded.table_to_gpu[table.name] = target
        loads[target] += table.nbytes
        moved_tables.append(table.name)
        moved_bytes += table.nbytes
    return resharded, tuple(moved_tables), moved_bytes
